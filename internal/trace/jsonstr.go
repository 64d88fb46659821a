package trace

import "unicode/utf8"

// The /classify hot path writes its JSON by hand (see AppendProofJSON and
// internal/serve's response plan), so it needs encoding/json's string
// escaping without encoding/json. The contract is byte-compatibility with
// json.Marshal under its default EscapeHTML=true: `"` and `\` are
// backslash-escaped; control bytes are \b \f \n \r \t or \u00XX; `<` `>`
// `&` are \u003c \u003e \u0026; U+2028 and U+2029 are \u2028 and \u2029;
// a byte that is not valid UTF-8 becomes \ufffd. FuzzAppendJSONString holds the
// two against each other.

// jsonSafe marks the bytes that stand for themselves inside a JSON string:
// printable ASCII except `"`, `\`, `<`, `>` and `&`.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s to dst as a quoted JSON string.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendJSONEscaped(dst, s)
	return append(dst, '"')
}

// escapeJSONTail turns dst[from:], raw text just appended by an AppendTo
// writer, into the body of a JSON string. Most terms are plain ASCII and
// stay where they are.
func escapeJSONTail(dst []byte, from int) []byte {
	i := from
	for i < len(dst) && jsonSafe[dst[i]] {
		i++
	}
	if i == len(dst) {
		return dst
	}
	var stack [128]byte
	raw := append(stack[:0], dst[i:]...)
	return appendJSONEscaped(dst[:i], raw)
}

func appendJSONEscaped[S []byte | string](dst []byte, src S) []byte {
	start := 0
	for i := 0; i < len(src); {
		b := src[i]
		if jsonSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Converting at most one rune's bytes keeps the string on the stack.
		c, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, src[start:]...)
}
