package logic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInternStability(t *testing.T) {
	a := Intern("foo")
	b := Intern("foo")
	c := Intern("bar")
	if a != b {
		t.Fatalf("Intern not stable: %v vs %v", a, b)
	}
	if a == c {
		t.Fatalf("distinct names mapped to one symbol")
	}
	if a.Name() != "foo" || c.Name() != "bar" {
		t.Fatalf("Name round-trip failed: %q %q", a.Name(), c.Name())
	}
}

// TestInternBytes checks that InternBytes hands out Intern's symbols, that
// it copies a new name out of the caller's buffer, and that looking up a
// known name allocates nothing.
func TestInternBytes(t *testing.T) {
	buf := []byte("intern_bytes_new")
	s := InternBytes(buf)
	copy(buf, "XXXXXX")
	if s.Name() != "intern_bytes_new" || Intern("intern_bytes_new") != s {
		t.Fatalf("InternBytes gave %v named %q", s, s.Name())
	}
	if InternBytes([]byte("foo")) != Intern("foo") {
		t.Fatal("InternBytes and Intern disagree on a known name")
	}
	known := []byte("intern_bytes_new")
	if n := testing.AllocsPerRun(100, func() { InternBytes(known) }); n != 0 {
		t.Fatalf("looking up a known name allocates %v times", n)
	}
}

func TestInternConcurrent(t *testing.T) {
	done := make(chan Symbol, 64)
	for i := 0; i < 64; i++ {
		go func() { done <- Intern("concurrent_symbol") }()
	}
	first := <-done
	for i := 1; i < 64; i++ {
		if s := <-done; s != first {
			t.Fatalf("concurrent Intern returned different symbols: %v vs %v", s, first)
		}
	}
}

func TestTermConstructors(t *testing.T) {
	v := V(3)
	if v.Kind != Var || v.VarIndex() != 3 {
		t.Fatalf("V(3) = %+v", v)
	}
	a := A("hello")
	if a.Kind != Atom || a.Sym.Name() != "hello" {
		t.Fatalf("A: %+v", a)
	}
	n := IntTerm(-7)
	if n.Kind != Int || n.Num != -7 {
		t.Fatalf("IntTerm: %+v", n)
	}
	f := FloatTerm(2.5)
	if f.Kind != Float || f.Num != 2.5 {
		t.Fatalf("FloatTerm: %+v", f)
	}
	c := Comp("f", V(0), A("x"))
	if c.Kind != Compound || c.Arity() != 2 {
		t.Fatalf("Comp: %+v", c)
	}
	if Comp("g").Kind != Atom {
		t.Fatalf("0-arity Comp should degenerate to Atom")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Term
		want bool
	}{
		{A("x"), A("x"), true},
		{A("x"), A("y"), false},
		{V(1), V(1), true},
		{V(1), V(2), false},
		{IntTerm(3), IntTerm(3), true},
		{IntTerm(3), FloatTerm(3), false}, // structural equality is kind-strict
		{Comp("f", A("a")), Comp("f", A("a")), true},
		{Comp("f", A("a")), Comp("f", A("b")), false},
		{Comp("f", A("a")), Comp("g", A("a")), false},
		{Comp("f", A("a")), Comp("f", A("a"), A("b")), false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestGroundAndMaxVar(t *testing.T) {
	g := Comp("f", A("a"), IntTerm(1))
	if !g.IsGround() {
		t.Errorf("%s should be ground", g)
	}
	ng := Comp("f", A("a"), Comp("g", V(4)))
	if ng.IsGround() {
		t.Errorf("%s should not be ground", ng)
	}
	if got := ng.MaxVar(); got != 4 {
		t.Errorf("MaxVar = %d, want 4", got)
	}
	if got := g.MaxVar(); got != -1 {
		t.Errorf("MaxVar of ground = %d, want -1", got)
	}
}

func TestOffsetVars(t *testing.T) {
	tm := Comp("f", V(0), Comp("g", V(2)), A("k"))
	shifted := tm.OffsetVars(10)
	want := Comp("f", V(10), Comp("g", V(12)), A("k"))
	if !Equal(shifted, want) {
		t.Fatalf("OffsetVars: got %s want %s", shifted, want)
	}
	// Original untouched.
	if !Equal(tm, Comp("f", V(0), Comp("g", V(2)), A("k"))) {
		t.Fatalf("OffsetVars mutated the input")
	}
}

func TestRenameVarsFirstOccurrence(t *testing.T) {
	tm := Comp("f", V(7), V(3), V(7))
	ren := make(map[int]int)
	next := 0
	got := tm.RenameVars(ren, &next)
	want := Comp("f", V(0), V(1), V(0))
	if !Equal(got, want) {
		t.Fatalf("RenameVars: got %s want %s", got, want)
	}
	if next != 2 {
		t.Fatalf("next = %d, want 2", next)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		t    Term
		want string
	}{
		{V(0), "A"},
		{V(25), "Z"},
		{V(26), "V26"},
		{A("foo"), "foo"},
		{A("Needs Quote"), "'Needs Quote'"},
		{IntTerm(42), "42"},
		{FloatTerm(2.5), "2.5"},
		{Comp("f", A("a"), V(1)), "f(a, B)"},
		{Comp("=<", V(0), IntTerm(3)), "A =< 3"},
		{Comp("+", A("mol")), "+mol"},
		{V(100), "V100"},
		{A(""), "''"},
		{A("it's"), `'it\'s'`},
		{Comp("Big F", A("it's"), V(2)), `'Big F'('it\'s', C)`},
		{IntTerm(-7), "-7"},
		{FloatTerm(2), "2.0"},
		{FloatTerm(-0.6), "-0.6"},
		{FloatTerm(1e21), "1e+21"},
		{Comp("-", V(0)), "-A"},
		{Comp("#", A("carlen")), "#carlen"},
		{Comp("-", V(0), V(1)), "-(A, B)"},
		{Comp("\\=", V(0), A("b")), `A \= b`},
		{Comp("is", V(0), Comp("+", V(1), IntTerm(1))), "A is +(B, 1)"},
		{Comp("f", Comp("<", V(0), FloatTerm(3)), Comp("g", A("X y"))), "f(A < 3.0, g('X y'))"},
		{Term{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.t, got, c.want)
		}
	}
}

// TestAppendToExtends pins the append contract of the three writers: what is
// already in the buffer stays, the rendering follows it.
func TestAppendToExtends(t *testing.T) {
	c := MustParseClause("p(X) :- \\+q(X, 'a b'), X =< 2.0.")
	dst := []byte("goal: ")
	dst = c.Head.AppendTo(dst)
	dst = append(dst, " | "...)
	dst = c.Body[0].AppendTo(dst)
	dst = append(dst, " | "...)
	dst = c.AppendTo(dst)
	want := `goal: p(A) | \+q(A, 'a b') | p(A) :- \+q(A, 'a b'), A =< 2.0`
	if string(dst) != want {
		t.Fatalf("AppendTo chain = %q, want %q", dst, want)
	}
}

// randomTerm builds a random term with variables < nv and depth ≤ d.
func randomTerm(r *rand.Rand, nv, d int) Term {
	switch k := r.Intn(5); {
	case k == 0 && nv > 0:
		return V(r.Intn(nv))
	case k == 1:
		return A([]string{"a", "b", "c", "d"}[r.Intn(4)])
	case k == 2:
		return IntTerm(int64(r.Intn(10)))
	case k == 3 || d == 0:
		return FloatTerm(float64(r.Intn(5)) / 2)
	default:
		n := 1 + r.Intn(3)
		args := make([]Term, n)
		for i := range args {
			args[i] = randomTerm(r, nv, d-1)
		}
		return CompSym(Intern([]string{"f", "g", "h"}[r.Intn(3)]), args...)
	}
}

type quickTerm struct{ T Term }

// Generate makes quickTerm usable with testing/quick.
func (quickTerm) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickTerm{T: randomTerm(r, 4, 3)})
}

func TestQuickEqualReflexive(t *testing.T) {
	f := func(q quickTerm) bool { return Equal(q.T, q.T) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickOffsetRoundTrip(t *testing.T) {
	f := func(q quickTerm) bool {
		return Equal(q.T.OffsetVars(13).OffsetVars(-13), q.T)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringParseRoundTrip(t *testing.T) {
	f := func(q quickTerm) bool {
		// Canonicalise variable numbering first so the parse (which numbers
		// by first occurrence) can reproduce it.
		ren := make(map[int]int)
		next := 0
		canon := q.T.RenameVars(ren, &next)
		back, err := ParseTerm(canon.String())
		if err != nil {
			return false
		}
		return Equal(back, canon)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
