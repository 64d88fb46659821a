package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzAppendJSONString holds the hand-written escaper against encoding/json
// (whose Marshal escapes HTML by default) on arbitrary bytes, through both
// entry points: a whole string, and raw text escaped in place at the end of
// a buffer.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "active(d1)", "A =< B", `<>&"\`, "p(X) :- \\+q(X), X < 3",
		"\x00\x01\b\t\n\f\r\x1f\x7f", "tab\tand\nnewline",
		"line\u2028sep\u2029end", "héllo wörld ✓ 𝄞",
		"trunc\xe2\x80", "\xff", "\xc0\xaf", "a\xe2\x80\xa8", "\xed\xa0\x80",
		strings.Repeat("long < ", 40),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte(`{"k": `)
		if got := AppendJSONString(append([]byte(nil), prefix...), s); !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got[len(prefix):], want)
		}
		tail := append(append([]byte(nil), prefix...), '"')
		from := len(tail)
		tail = append(escapeJSONTail(append(tail, s...), from), '"')
		if !bytes.Equal(tail[len(prefix):], want) || !bytes.HasPrefix(tail, prefix) {
			t.Fatalf("escapeJSONTail(%q) = %s, json.Marshal = %s", s, tail[len(prefix):], want)
		}
	})
}
