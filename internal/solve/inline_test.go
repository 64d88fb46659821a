package solve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// TestDispatchInlinedIntoStep holds the compiler to inlining both dispatch
// lookups into (*Machine).step. Every goal the compiler could not dispatch
// statically — each builtin call, each variable goal — looks up the builtin
// table and then the program's predicate table there; a lookup that stops
// inlining costs a call per step. The compiler replays its -m report from
// the build cache, so a warm cache reports the same lines.
func TestDispatchInlinedIntoStep(t *testing.T) {
	first, last := methodLines(t, "machine.go", "Machine", "step")
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, callee := range []string{"builtinFor", "(*program).predFor"} {
		re := regexp.MustCompile(`(?m)(?:^|/)machine\.go:(\d+):\d+: inlining call to ` + regexp.QuoteMeta(callee) + `$`)
		var at []int
		inStep := false
		for _, m := range re.FindAllSubmatch(out, -1) {
			line, _ := strconv.Atoi(string(m[1]))
			at = append(at, line)
			inStep = inStep || first <= line && line <= last
		}
		if !inStep {
			t.Errorf("%s is not inlined into (*Machine).step (machine.go:%d-%d); machine.go inlines it at lines %v", callee, first, last, at)
		}
	}
}

// methodLines returns the first and last line of the method recv.name in
// the package file.
func methodLines(t *testing.T, file, recv, name string) (first, last int) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != name || fd.Recv == nil || len(fd.Recv.List) != 1 {
			continue
		}
		if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
			if id, ok := star.X.(*ast.Ident); ok && id.Name == recv {
				return fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
			}
		}
	}
	t.Fatalf("%s: no method (*%s).%s", file, recv, name)
	return 0, 0
}
