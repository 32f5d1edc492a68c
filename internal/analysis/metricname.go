package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// MetricNameAnalyzer keeps the obs namespace coherent so dashboards and
// the self-scrape loop never chase a renamed or colliding series:
//
//   - every registration call (Counter/Gauge/Histogram and the
//     Register* variants on an obs Registry) takes a string literal —
//     computed names defeat grep and this analyzer both;
//   - names match scrub_{host,transport,central,coord,server}_[a-z0-9_]*;
//   - the component segment matches the registering package
//     (internal/host registers scrub_host_*, and so on);
//   - unit suffixes are consistent: counters end in _total, histograms
//     in _ns/_bytes/_seconds/_ratio (gauges are free-form levels);
//   - a name registers at exactly one source location (re-registration
//     from the same line — loops, restarts — is fine; two different
//     lines claiming one series is a collision).
var MetricNameAnalyzer = &Analyzer{
	Name: "metricname",
	Doc:  "obs metric names: literal, scrub_{component}_* with consistent unit suffixes, no duplicates",
	Run:  runMetricName,
}

var (
	metricNameRe = regexp.MustCompile(`^scrub_(host|transport|central|coord|server)_[a-z][a-z0-9_]*$`)
	histSuffixes = []string{"_ns", "_bytes", "_seconds", "_ratio", "_ns_total", "_bytes_total"}
)

var registerMethods = map[string]string{
	"Counter":           "counter",
	"Gauge":             "gauge",
	"Histogram":         "histogram",
	"RegisterCounter":   "counter",
	"RegisterGauge":     "gauge",
	"RegisterHistogram": "histogram",
}

type metricSite struct {
	name string
	kind string
	pos  token.Pos
	file string
	line int
}

func runMetricName(pass *Pass) {
	var sites []metricSite
	for _, u := range pass.Prog.Packages {
		if strings.HasSuffix(strings.TrimSuffix(u.Path, "_test"), "internal/obs") {
			continue // the registry's own unit tests exercise arbitrary names
		}
		for _, f := range u.Files {
			fname := pass.Prog.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(fname, "_test.go") {
				continue // test doubles may register throwaway series
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				kind, ok := registerMethods[sel.Sel.Name]
				if !ok || len(call.Args) == 0 {
					return true
				}
				if !isObsRegistry(u, sel.X) {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					pass.Reportf("metricname", call.Args[0].Pos(),
						"obs %s name must be a string literal (computed names break grep and this check)", kind)
					return true
				}
				name := strings.Trim(lit.Value, "`\"")
				checkMetricName(pass, u, name, kind, lit.Pos())
				p := pass.Prog.Fset.Position(lit.Pos())
				sites = append(sites, metricSite{name: name, kind: kind, pos: lit.Pos(), file: p.Filename, line: p.Line})
				return true
			})
		}
	}

	// Duplicate detection: one series, one registration site.
	byName := make(map[string][]metricSite)
	for _, s := range sites {
		byName[s.name] = append(byName[s.name], s)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := byName[name]
		first := make(map[string]bool)
		for _, s := range ss {
			first[fmt.Sprintf("%s:%d", s.file, s.line)] = true
		}
		if len(first) > 1 {
			for _, s := range ss[1:] {
				if s.file == ss[0].file && s.line == ss[0].line {
					continue
				}
				pass.Reportf("metricname", s.pos,
					"metric %q already registered at %s:%d — series names must be unique", name, ss[0].file, ss[0].line)
			}
		}
	}
}

func checkMetricName(pass *Pass, u *Package, name, kind string, pos token.Pos) {
	m := metricNameRe.FindStringSubmatch(name)
	if m == nil {
		pass.Reportf("metricname", pos,
			"metric %q does not match scrub_{host|transport|central|coord|server}_[a-z0-9_]*", name)
		return
	}
	component := m[1]
	// internal/host registers scrub_host_*, etc. Packages outside the
	// five components (cmd/, tests) may register any component's series.
	pkgPath := strings.TrimSuffix(u.Path, "_test")
	for _, c := range []string{"host", "transport", "central", "coord", "server"} {
		if strings.HasSuffix(pkgPath, "internal/"+c) && component != c {
			pass.Reportf("metricname", pos,
				"metric %q registered from %s should use the scrub_%s_ prefix", name, pkgPath, c)
		}
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf("metricname", pos,
				"counter %q must end in _total (monotonic series convention)", name)
		}
	case "histogram":
		okSuffix := false
		for _, s := range histSuffixes {
			if strings.HasSuffix(name, s) {
				okSuffix = true
				break
			}
		}
		if !okSuffix {
			pass.Reportf("metricname", pos,
				"histogram %q must carry a unit suffix (_ns, _bytes, _seconds, _ratio)", name)
		}
	}
}

// isObsRegistry reports whether expr's type is (a pointer to) a named
// type called "Registry" — the obs.Registry, or a testdata stand-in.
func isObsRegistry(u *Package, expr ast.Expr) bool {
	t := u.TypeOf(expr)
	if t == nil {
		return false
	}
	n := namedOf(t)
	return n != nil && n.Obj() != nil && n.Obj().Name() == "Registry"
}
