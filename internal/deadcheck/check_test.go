package deadcheck

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeFiles lays out a module from a map of slash-separated path to
// contents under a fresh temporary directory and returns its root.
func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const gomod = "module example.com/m\n\ngo 1.22\n"

// mainUses is a command that references internal/a's Used.
const mainUses = `package main

import "example.com/m/internal/a"

func main() { a.Used() }
`

func TestCheck(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		allow string
		want  []finding // keys and reasons; positions are not compared
	}{
		{
			name: "referenced declarations pass",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Used() { helper() }\n\nfunc helper() {}\n",
				"cmd/app/main.go": mainUses,
			},
		},
		{
			name: "unused export fails",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Used() {}\n\n// Unused is exported but never called.\nfunc Unused() {}\n",
				"cmd/app/main.go": mainUses,
			},
			want: []finding{{key: "internal/a.Unused", why: whyUnused}},
		},
		{
			name: "unused unexported declarations fail, self-reference is no use",
			files: map[string]string{
				"internal/a/a.go": `package a

func Used() {}

func loop(n int) int { return loop(n - 1) }

type node struct{ next *node }

func (n *node) walk() { n.walk() }

const limit = 3

var count = limit
`,
				"cmd/app/main.go": mainUses,
			},
			want: []finding{
				{key: "internal/a.count", why: whyUnused},
				{key: "internal/a.loop", why: whyUnused},
				{key: "internal/a.node", why: whyUnused},
				{key: "internal/a.node.walk", why: whyUnused},
			},
		},
		{
			name: "methods that satisfy an interface pass",
			files: map[string]string{
				"internal/a/a.go": `package a

import "fmt"

func Used() { fmt.Println(E{}, Total([]Shape{Sq{}})) }

// E satisfies error and fmt.Stringer.
type E struct{}

func (E) Error() string  { return "e" }
func (E) String() string { return "e" }

// Shape is an interface of the module itself.
type Shape interface{ Area() float64 }

type Sq struct{}

func (Sq) Area() float64 { return 1 }

func Total(ss []Shape) (t float64) {
	for _, s := range ss {
		t += s.Area()
	}
	return t
}
`,
				"cmd/app/main.go": mainUses,
			},
		},
		{
			name: "a method with an interface's name but not its signature fails",
			files: map[string]string{
				"internal/a/a.go": `package a

import "fmt"

func Used() { fmt.Println(W{}) }

type W struct{}

func (W) String(n int) string { return fmt.Sprint(n) }
`,
				"cmd/app/main.go": mainUses,
			},
			want: []finding{{key: "internal/a.W.String", why: whyUnused}},
		},
		{
			name: "a test-only reference fails",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\nfunc Used() {}\n\nfunc Fixture() int { return 1 }\n",
				"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestFixture(t *testing.T) { _ = Fixture() }\n",
				"cmd/app/main.go":      mainUses,
			},
			want: []finding{{key: "internal/a.Fixture", why: whyUnused}},
		},
		{
			name: "an allowlisted test-only reference passes",
			files: map[string]string{
				"internal/a/a.go":      "package a\n\nfunc Used() {}\n\nfunc Fixture() int { return 1 }\n",
				"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestFixture(t *testing.T) { _ = Fixture() }\n",
				"cmd/app/main.go":      mainUses,
			},
			allow: "# comment\n\ninternal/a.Fixture the tests' shared fixture\n",
		},
		{
			name: "stale allowlist entries fail",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Used() {}\n",
				"cmd/app/main.go": mainUses,
			},
			allow: "internal/a.Gone deleted long ago\ninternal/a.Used now called by cmd/app\n",
			want: []finding{
				{key: "internal/a.Gone", why: whyMissing},
				{key: "internal/a.Used", why: whyUsed},
			},
		},
		{
			name: "an allowlist entry needs a reason",
			files: map[string]string{
				"internal/a/a.go": "package a\n\nfunc Used() {}\n\nfunc Fixture() {}\n",
				"cmd/app/main.go": mainUses,
			},
			allow: "internal/a.Fixture\n",
			want:  []finding{{key: "internal/a.Fixture", why: whyReason}},
		},
		{
			name: "an option field no non-test file sets fails",
			files: map[string]string{
				"internal/a/a.go": `package a

// RunOptions configures Used.
type RunOptions struct {
	Workers int
	Verbose bool // read below, set only by a test
	limit   int  // unexported fields are exempt
}

func Used(o RunOptions) int {
	if o.Verbose {
		return o.limit
	}
	return o.Workers
}
`,
				"internal/a/a_test.go": "package a\n\nimport \"testing\"\n\nfunc TestV(t *testing.T) { Used(RunOptions{Verbose: true}) }\n",
				"cmd/app/main.go": `package main

import "example.com/m/internal/a"

func main() { a.Used(a.RunOptions{Workers: 2}) }
`,
			},
			want: []finding{{key: "internal/a.RunOptions.Verbose", why: whyUnset}},
		},
		{
			name: "option fields set by assignment, increment or a bound flag pass; other structs are exempt",
			files: map[string]string{
				"internal/a/a.go": `package a

type NodeConfig struct{ ID, Addr string; Retries int }

// Report is no option type: its fields need no setter.
type Report struct{ Count int }

func Used(c *NodeConfig) Report { return Report{} }
`,
				"cmd/app/main.go": `package main

import (
	"flag"

	"example.com/m/internal/a"
)

func main() {
	var c a.NodeConfig
	c.ID = "n1"
	(c).Retries++
	flag.StringVar(&c.Addr, "addr", "", "")
	_ = a.Used(&c).Count
}
`,
			},
		},
		{
			name: "an allowlisted option field passes, and a stale field entry fails",
			files: map[string]string{
				"internal/a/a.go": "package a\n\ntype Options struct{ Seam, Set int }\n\nfunc Used(o Options) int { return o.Seam + o.Set }\n",
				"cmd/app/main.go": "package main\n\nimport \"example.com/m/internal/a\"\n\nfunc main() { a.Used(a.Options{Set: 1}) }\n",
			},
			allow: "internal/a.Options.Seam the tests' seam\ninternal/a.Options.Set set by cmd/app\n",
			want:  []finding{{key: "internal/a.Options.Set", why: whyUsed}},
		},
		{
			name: "the root package and other directories are exempt",
			files: map[string]string{
				"m.go":         "package m\n\nfunc Public() {}\n",
				"tools/t/t.go": "package t\n\nfunc Tool() {}\n",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.files["go.mod"] = gomod
			found, err := check(writeFiles(t, c.files), []byte(c.allow))
			if err != nil {
				t.Fatal(err)
			}
			got := []finding{}
			for _, f := range found {
				got = append(got, finding{key: f.key, why: f.why})
			}
			want := c.want
			if want == nil {
				want = []finding{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings:\n got %v\nwant %v", got, want)
			}
		})
	}
}
