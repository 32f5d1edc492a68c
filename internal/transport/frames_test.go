package transport

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden from sampleMessages")

const framesGolden = "testdata/frames.golden"

// frameLines is AppendEncode of every sampleMessages entry, one line each:
// tag, message name, payload in hex.
func frameLines(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, m := range sampleMessages() {
		enc, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("AppendEncode(%s): %v", Name(m), err)
		}
		out = append(out, fmt.Sprintf("%d %s %x", enc[0], Name(m), enc))
	}
	return out
}

// retiredFrames are the golden lines of retired messages, whose tags are
// reserved: the golden keeps them so that the decoder is held to refusing
// them. -update writes them after the base protocol's frames (tags up to
// QueryList's), where they stood when the messages were retired.
var retiredFrames = []string{
	"12 Ping 0c6300000000000000",
	"13 Pong 0d6300000000000000",
}

// TestFramesGolden pins the wire: the bytes every sample message encodes
// to are the ones in testdata/frames.golden. A change to a tag, a field's
// width or order, or a length prefix shows here as a moved line; -update
// rewrites the file, and a moved line needs a protocol reason. A golden
// frame whose tag is now reserved (a retired message's) must be refused
// by the decoder, so the tag cannot come back meaning something else, and
// the golden must hold every retired frame.
func TestFramesGolden(t *testing.T) {
	got := frameLines(t)
	if *update {
		base := slices.IndexFunc(sampleMessages(), func(m Message) bool { return m.msgTag() > tagQueryList })
		lines := slices.Concat(got[:base], retiredFrames, got[base:])
		if err := os.MkdirAll(filepath.Dir(framesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(framesGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(framesGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	retired := slices.Clone(retiredFrames)
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var tag int
		var name, payload string
		if _, err := fmt.Sscanf(line, "%d %s %x", &tag, &name, &payload); err != nil {
			t.Fatalf("%s: %q: %v", framesGolden, line, err)
		}
		if tag < len(names) && names[tag] == "" {
			if m, err := Decode([]byte(payload)); err == nil {
				t.Errorf("reserved tag %d (%s) decodes, as %s", tag, name, Name(m))
			}
			retired = slices.DeleteFunc(retired, func(r string) bool { return r == line })
			continue
		}
		want = append(want, line)
	}
	for _, r := range retired {
		t.Errorf("%s lacks the retired frame %q", framesGolden, r)
	}
	if len(got) != len(want) {
		t.Fatalf("%d sample frames, %s has %d", len(got), framesGolden, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
}
