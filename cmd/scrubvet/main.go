// Command scrubvet runs Scrub's custom static-analysis suite (package
// internal/analysis) over the module. It is wired into `make vet` and
// scripts/ci.sh ahead of the test steps, so contract violations fail
// the build before they can fail in production.
//
// Usage:
//
//	scrubvet [-C dir] [-analyzers hotpath,poolsafe,...] [-notests] [-json] [packages...]
//
// -json emits one JSON object per finding (file/line/analyzer/message),
// for CI tooling. The passes run concurrently, or one at a time when
// GOMAXPROCS is 1.
//
// Exit status is 1 when any diagnostic is reported, 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"scrub/internal/analysis"
)

func main() {
	dir := flag.String("C", ".", "change to this directory (module root) before loading")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	noTests := flag.Bool("notests", false, "skip _test.go files (default: tests are analyzed too)")
	list := flag.Bool("list", false, "print the available analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding instead of plain text")
	flag.Parse()

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := all
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		selected = nil
		for _, a := range all {
			if want[a.Name] {
				selected = append(selected, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			for name := range want {
				fmt.Fprintf(os.Stderr, "scrubvet: unknown analyzer %q\n", name)
			}
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.Load(analysis.LoadConfig{
		Dir:      *dir,
		Patterns: patterns,
		Tests:    !*noTests,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scrubvet: %v\n", err)
		os.Exit(2)
	}

	diags := analysis.Run(prog, selected)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			if err := enc.Encode(jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "scrubvet: %v\n", err)
				os.Exit(2)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "scrubvet: %d issue(s) across %d analyzer(s)\n", len(diags), len(selected))
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable diagnostic shape scripts/ci.sh
// prints on failure: one object per line.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}
