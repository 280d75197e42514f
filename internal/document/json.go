package document

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The canonical JSON codec: ParseJSON and AppendJSON move documents
// between bytes and canonical values in one pass, without encoding/json's
// reflection or an intermediate json.Number tree. The bytes are exactly
// encoding/json's, so a reader on either side of the codec cannot tell
// which one wrote them.

// maxParseDepth caps nesting, as encoding/json's scanner does: 10,000
// nested arrays or objects parse, one more is an error.
const maxParseDepth = 10000

// maxInterned bounds the per-parse table that shares the backing of
// repeated keys and short strings, so adversarial input with many
// distinct keys cannot grow it without bound.
const maxInterned = 4096

// internMaxLen is the longest string value the parser interns. Keys are
// interned at any length.
const internMaxLen = 16

// ParseJSON decodes one JSON value into canonical document values: the
// result is exactly Normalize of an encoding/json decode that keeps
// numbers as json.Number. It is the one way JSON becomes a document
// (D.UnmarshalJSON and FromJSON call it). Objects become map[string]any,
// arrays []any, an integral literal (no fraction or exponent) that fits
// int64 becomes int64, any other number float64. Input validity matches
// json.Unmarshal: one value, optionally surrounded by whitespace;
// duplicate keys keep the last value; invalid UTF-8 and lone surrogate
// escapes become U+FFFD; more than 10,000 nested levels is an error. The
// one difference from that decode + Normalize is a literal beyond
// float64's range (1e400): Normalize keeps it as the string "1e400",
// ParseJSON rejects it, as json.Unmarshal does.
func ParseJSON(b []byte) (any, error) {
	p := parser{buf: b}
	p.skipSpace()
	v, err := p.value(0)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.buf) {
		return nil, p.unexpected("after top-level value")
	}
	return v, nil
}

// SplitDocs validates b, a JSON object, without building any value, and
// splits its member named field — an array of documents — into the
// bytes of each document: docs[i] parses to the same document as element
// i of the array. fields holds the bytes of every member's value (the
// last of duplicate keys, which is the one ParseJSON keeps). It rejects
// exactly what ParseJSON rejects, and also a b that is not an object and
// a field member that is neither null nor an array of objects. Every
// slice returned shares b's backing.
func SplitDocs(b []byte, field string) (docs [][]byte, fields map[string][]byte, err error) {
	p := parser{buf: b}
	p.skipSpace()
	if p.pos >= len(p.buf) {
		return nil, nil, p.eof()
	}
	if p.buf[p.pos] != '{' {
		return nil, nil, p.errorf("splitting %q: the value is not an object", field)
	}
	p.pos++
	fields = make(map[string][]byte)
	p.skipSpace()
	more := p.pos >= len(p.buf) || p.buf[p.pos] != '}'
	if !more {
		p.pos++
	}
	for more {
		if p.pos >= len(p.buf) {
			return nil, nil, p.eof()
		}
		if p.buf[p.pos] != '"' {
			return nil, nil, p.unexpected("looking for beginning of object key string")
		}
		raw, err := p.str()
		if err != nil {
			return nil, nil, err
		}
		key := string(raw)
		if err := p.colon(); err != nil {
			return nil, nil, err
		}
		start := p.pos
		if key == field {
			docs, err = p.splitArray()
		} else {
			err = p.skip(1)
		}
		if err != nil {
			return nil, nil, err
		}
		fields[key] = b[start:p.pos]
		if more, err = p.next('}', "after object key:value pair"); err != nil {
			return nil, nil, err
		}
	}
	p.skipSpace()
	if p.pos < len(p.buf) {
		return nil, nil, p.unexpected("after top-level value")
	}
	return docs, fields, nil
}

// splitArray validates the value at p.pos, at nesting depth 1, which must
// be null or an array of objects, and returns the bytes of each object.
func (p *parser) splitArray() ([][]byte, error) {
	if p.pos < len(p.buf) && p.buf[p.pos] == 'n' {
		return nil, p.skip(1)
	}
	if p.pos >= len(p.buf) || p.buf[p.pos] != '[' {
		if err := p.skip(1); err != nil {
			return nil, err
		}
		return nil, p.errorf("the documents are not an array")
	}
	p.pos++ // '['
	docs := [][]byte{}
	p.skipSpace()
	if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
		p.pos++
		return docs, nil
	}
	for {
		start := p.pos
		if err := p.skip(2); err != nil {
			return nil, err
		}
		if p.buf[start] != '{' {
			return nil, p.errorf("document %d is not an object", len(docs))
		}
		docs = append(docs, p.buf[start:p.pos])
		more, err := p.next(']', "after array element")
		if err != nil || !more {
			return docs, err
		}
	}
}

// skip validates the JSON value at p.pos exactly as value does, and moves
// past it without building anything. depth counts the containers
// enclosing the value.
func (p *parser) skip(depth int) error {
	if p.pos >= len(p.buf) {
		return p.eof()
	}
	switch c := p.buf[p.pos]; {
	case c == '{' || c == '[':
		if depth+1 > maxParseDepth {
			return p.errorf("exceeded max depth of %d", maxParseDepth)
		}
		p.pos++
		closer := byte(']')
		context := "after array element"
		if c == '{' {
			closer, context = '}', "after object key:value pair"
		}
		p.skipSpace()
		if p.pos < len(p.buf) && p.buf[p.pos] == closer {
			p.pos++
			return nil
		}
		for {
			if c == '{' {
				if p.pos >= len(p.buf) {
					return p.eof()
				}
				if p.buf[p.pos] != '"' {
					return p.unexpected("looking for beginning of object key string")
				}
				if err := p.skipString(); err != nil {
					return err
				}
				if err := p.colon(); err != nil {
					return err
				}
			}
			if err := p.skip(depth + 1); err != nil {
				return err
			}
			more, err := p.next(closer, context)
			if err != nil || !more {
				return err
			}
		}
	case c == '"':
		return p.skipString()
	case c == '-' || '0' <= c && c <= '9':
		return p.skipNumber()
	case c == 't':
		_, err := p.word("true", nil)
		return err
	case c == 'f':
		_, err := p.word("false", nil)
		return err
	case c == 'n':
		_, err := p.word("null", nil)
		return err
	}
	return p.unexpected("looking for beginning of value")
}

// colon reads the ':' after an object key and the space around it.
func (p *parser) colon() error {
	p.skipSpace()
	if p.pos >= len(p.buf) {
		return p.eof()
	}
	if p.buf[p.pos] != ':' {
		return p.unexpected("after object key")
	}
	p.pos++
	p.skipSpace()
	return nil
}

// next reads what follows a container member: a ',' (more is true) or
// the closer (more is false), with the space around it.
func (p *parser) next(closer byte, context string) (more bool, err error) {
	p.skipSpace()
	if p.pos >= len(p.buf) {
		return false, p.eof()
	}
	switch p.buf[p.pos] {
	case ',':
		p.pos++
		p.skipSpace()
		return true, nil
	case closer:
		p.pos++
		return false, nil
	}
	return false, p.unexpected(context)
}

// skipString validates the string literal at p.pos as str does, without
// decoding it: invalid UTF-8 is accepted there too.
func (p *parser) skipString() error {
	for i := p.pos + 1; i < len(p.buf); i++ {
		switch c := p.buf[i]; {
		case c == '"':
			p.pos = i + 1
			return nil
		case c == '\\':
			if i+1 >= len(p.buf) {
				return p.eof()
			}
			switch p.buf[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if _, err := p.hex4(i + 2); err != nil {
					return err
				}
				i += 5
			default:
				p.pos = i + 1
				return p.unexpected("in string escape code")
			}
		case c < 0x20:
			p.pos = i
			return p.unexpected("in string literal")
		}
	}
	return p.eof()
}

// skipNumber validates the number literal at p.pos as number does. Only
// a literal with an exponent, or longer than 308 characters, can lie
// beyond float64's range, so only those are converted.
func (p *parser) skipNumber() error {
	start := p.pos
	if err := p.numberEnd(); err != nil {
		return err
	}
	lit := p.buf[start:p.pos]
	if len(lit) > 308 || slices.ContainsFunc(lit, func(c byte) bool { return c == 'e' || c == 'E' }) {
		if _, ok := numberValue(string(lit)); !ok {
			return fmt.Errorf("document: parse JSON: number %s at offset %d is out of float64 range", lit, start)
		}
	}
	return nil
}

// parser is one ParseJSON call's state. kvs and vals are stacks shared by
// every nesting level: a container collects its members on top, then
// copies them into an exactly sized map or slice and pops them.
type parser struct {
	buf      []byte
	pos      int
	kvs      []member
	vals     []any
	scratch  []byte
	interned map[string]string
}

type member struct {
	key string
	val any
}

func (p *parser) value(depth int) (any, error) {
	if p.pos >= len(p.buf) {
		return nil, p.eof()
	}
	switch c := p.buf[p.pos]; {
	case c == '{':
		return p.object(depth + 1)
	case c == '[':
		return p.array(depth + 1)
	case c == '"':
		raw, err := p.str()
		if err != nil {
			return nil, err
		}
		if len(raw) <= internMaxLen {
			return p.intern(raw), nil
		}
		return string(raw), nil
	case c == '-' || '0' <= c && c <= '9':
		return p.number()
	case c == 't':
		return p.word("true", true)
	case c == 'f':
		return p.word("false", false)
	case c == 'n':
		return p.word("null", nil)
	}
	return nil, p.unexpected("looking for beginning of value")
}

func (p *parser) object(depth int) (any, error) {
	if depth > maxParseDepth {
		return nil, p.errorf("exceeded max depth of %d", maxParseDepth)
	}
	p.pos++ // '{'
	base := len(p.kvs)
	p.skipSpace()
	if p.pos < len(p.buf) && p.buf[p.pos] == '}' {
		p.pos++
		return map[string]any{}, nil
	}
	for {
		if p.pos >= len(p.buf) {
			return nil, p.eof()
		}
		if p.buf[p.pos] != '"' {
			return nil, p.unexpected("looking for beginning of object key string")
		}
		raw, err := p.str()
		if err != nil {
			return nil, err
		}
		key := p.intern(raw)
		p.skipSpace()
		if p.pos >= len(p.buf) {
			return nil, p.eof()
		}
		if p.buf[p.pos] != ':' {
			return nil, p.unexpected("after object key")
		}
		p.pos++
		p.skipSpace()
		v, err := p.value(depth)
		if err != nil {
			return nil, err
		}
		p.kvs = append(p.kvs, member{key, v})
		p.skipSpace()
		if p.pos >= len(p.buf) {
			return nil, p.eof()
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
			p.skipSpace()
			continue
		case '}':
			p.pos++
			members := p.kvs[base:]
			m := make(map[string]any, len(members))
			for i := range members {
				m[members[i].key] = members[i].val
				members[i] = member{} // drop references held by the stack
			}
			p.kvs = p.kvs[:base]
			return m, nil
		}
		return nil, p.unexpected("after object key:value pair")
	}
}

func (p *parser) array(depth int) (any, error) {
	if depth > maxParseDepth {
		return nil, p.errorf("exceeded max depth of %d", maxParseDepth)
	}
	p.pos++ // '['
	base := len(p.vals)
	p.skipSpace()
	if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
		p.pos++
		return []any{}, nil
	}
	for {
		v, err := p.value(depth)
		if err != nil {
			return nil, err
		}
		p.vals = append(p.vals, v)
		p.skipSpace()
		if p.pos >= len(p.buf) {
			return nil, p.eof()
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
			p.skipSpace()
			continue
		case ']':
			p.pos++
			out := slices.Clone(p.vals[base:])
			clear(p.vals[base:])
			p.vals = p.vals[:base]
			return out, nil
		}
		return nil, p.unexpected("after array element")
	}
}

// str reads the string literal at p.pos (its opening quote) and returns
// its decoded bytes: a slice of the input when the literal needs no
// decoding, else p.scratch, valid until the next call.
func (p *parser) str() ([]byte, error) {
	start := p.pos + 1
	for i := start; i < len(p.buf); {
		c := p.buf[i]
		switch {
		case c == '"':
			p.pos = i + 1
			return p.buf[start:i], nil
		case c == '\\' || c < 0x20:
			return p.strSlow(start)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(p.buf[i:])
			if r == utf8.RuneError && size == 1 {
				return p.strSlow(start)
			}
			i += size
		}
	}
	return nil, p.eof()
}

// strSlow decodes a string literal with escapes, control characters or
// invalid UTF-8, exactly as encoding/json's unquote does.
func (p *parser) strSlow(start int) ([]byte, error) {
	out := p.scratch[:0]
	i := start
	for i < len(p.buf) {
		c := p.buf[i]
		switch {
		case c == '"':
			p.pos = i + 1
			p.scratch = out
			return out, nil
		case c == '\\':
			if i+1 >= len(p.buf) {
				return nil, p.eof()
			}
			switch e := p.buf[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, err := p.hex4(i + 2)
				if err != nil {
					return nil, err
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is consumed whole; anything else leaves
					// the next escape for the loop and stands for U+FFFD.
					if i+1 < len(p.buf) && p.buf[i] == '\\' && p.buf[i+1] == 'u' {
						if r2, err := p.hex4(i + 2); err == nil {
							if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
								out = utf8.AppendRune(out, dec)
								i += 6
								continue
							}
						}
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				p.pos = i + 1
				return nil, p.unexpected("in string escape code")
			}
			i += 2
		case c < 0x20:
			p.pos = i
			return nil, p.unexpected("in string literal")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(p.buf[i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, unicode.ReplacementChar)
			} else {
				out = append(out, p.buf[i:i+size]...)
			}
			i += size
		}
	}
	return nil, p.eof()
}

// hex4 reads the four hex digits of a \u escape starting at i.
func (p *parser) hex4(i int) (rune, error) {
	var r rune
	for j := i; j < i+4; j++ {
		if j >= len(p.buf) {
			return 0, p.eof()
		}
		c := p.buf[j]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			p.pos = j
			return 0, p.unexpected("in \\u hexadecimal character escape")
		}
		r = r<<4 | rune(c)
	}
	return r, nil
}

// intern returns raw as a string, sharing one allocation between equal
// keys and short values within this parse.
func (p *parser) intern(raw []byte) string {
	if s, ok := p.interned[string(raw)]; ok {
		return s
	}
	s := string(raw)
	if p.interned == nil {
		p.interned = make(map[string]string)
	}
	if len(p.interned) < maxInterned {
		p.interned[s] = s
	}
	return s
}

// number reads a JSON number literal and classifies it with numberValue.
func (p *parser) number() (any, error) {
	start := p.pos
	if err := p.numberEnd(); err != nil {
		return nil, err
	}
	v, ok := numberValue(string(p.buf[start:p.pos]))
	if !ok {
		return nil, fmt.Errorf("document: parse JSON: number %s at offset %d is out of float64 range", p.buf[start:p.pos], start)
	}
	return v, nil
}

// numberEnd checks the syntax of the number literal at p.pos and moves
// past it.
func (p *parser) numberEnd() error {
	i := p.pos
	if p.buf[i] == '-' {
		i++
	}
	if i < len(p.buf) && p.buf[i] == '0' {
		i++
	} else if j := skipDigits(p.buf, i); j > i {
		i = j
	} else {
		p.pos = i
		return p.inNumber()
	}
	if i < len(p.buf) && p.buf[i] == '.' {
		j := skipDigits(p.buf, i+1)
		if j == i+1 {
			p.pos = j
			return p.inNumber()
		}
		i = j
	}
	if i < len(p.buf) && (p.buf[i] == 'e' || p.buf[i] == 'E') {
		i++
		if i < len(p.buf) && (p.buf[i] == '+' || p.buf[i] == '-') {
			i++
		}
		j := skipDigits(p.buf, i)
		if j == i {
			p.pos = j
			return p.inNumber()
		}
		i = j
	}
	p.pos = i
	return nil
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// numberValue is the one number rule of the document model, shared by
// ParseJSON and Normalize: a literal of decimal digits with an optional
// sign (strconv.ParseInt's base-10 syntax) that fits int64 is int64;
// anything strconv.ParseFloat accepts is float64; ok is false otherwise
// (out of float64 range, or not a number). It allocates nothing on
// either path, unlike json.Number.Int64, which builds a syntax error for
// every literal with a fraction.
func numberValue(lit string) (v any, ok bool) {
	if n, ok := parseDecimalInt64(lit); ok {
		return n, true
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return nil, false
	}
	return f, true
}

// parseDecimalInt64 is strconv.ParseInt(s, 10, 64) without the error
// value: ok is false for anything ParseInt would reject.
func parseDecimalInt64(s string) (int64, bool) {
	neg := false
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	const cutoff = 1 << 63 // |math.MinInt64|
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (cutoff-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	switch {
	case neg:
		return int64(-n), true
	case n < cutoff:
		return int64(n), true
	}
	return 0, false
}

// word reads the literal w (true, false or null), which stands for v.
func (p *parser) word(w string, v any) (any, error) {
	for i := 0; i < len(w); i++ {
		if p.pos >= len(p.buf) {
			return nil, p.eof()
		}
		if p.buf[p.pos] != w[i] {
			return nil, p.unexpected("in literal " + w)
		}
		p.pos++
	}
	return v, nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("document: parse JSON at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) eof() error {
	return fmt.Errorf("document: parse JSON: unexpected end of input")
}

func (p *parser) unexpected(context string) error {
	return p.errorf("invalid character %s %s", strconv.QuoteRuneToASCII(rune(p.buf[p.pos])), context)
}

func (p *parser) inNumber() error {
	if p.pos >= len(p.buf) {
		return p.eof()
	}
	return p.unexpected("in numeric literal")
}

// AppendJSON appends the JSON encoding of v to dst: exactly the bytes
// json.Marshal writes, without its reflection. Canonical values — nil,
// bool, string, int64, float64, D, map[string]any, []any, []D — and int
// are encoded here: keys sorted, <, >, &, U+2028 and U+2029 escaped,
// invalid UTF-8 as U+FFFD, floats in ES6 form ('e' below 1e-6 and from
// 1e21 up, -0 as "-0"). NaN and ±Inf are errors, as in json.Marshal. Any
// other type, and any subtree deeper than 1,000 levels (where
// json.Marshal starts checking for cycles), is handed to json.Marshal.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	var e encoder
	return e.value(dst, v, 0)
}

// marshalDepth is the nesting depth from which AppendJSON defers to
// json.Marshal, whose cycle check turns a cyclic value into an error
// instead of unbounded recursion.
const marshalDepth = 1000

// encoder is one AppendJSON call's state: keys is a stack of map keys
// shared by every nesting level, so sorting them allocates once per call.
type encoder struct {
	keys []string
}

func (e *encoder) value(dst []byte, v any, depth int) ([]byte, error) {
	if depth > marshalDepth {
		return appendMarshal(dst, v)
	}
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case string:
		return appendString(dst, x), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case float64:
		return appendFloat(dst, x)
	case map[string]any:
		return e.object(dst, x, depth)
	case D:
		return e.object(dst, x, depth)
	case []any:
		if x == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, el := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = e.value(dst, el, depth+1); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	case []D:
		if x == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, el := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = e.object(dst, el, depth+1); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	}
	return appendMarshal(dst, v)
}

func (e *encoder) object(dst []byte, m map[string]any, depth int) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	base := len(e.keys)
	for k := range m {
		e.keys = append(e.keys, k)
	}
	keys := e.keys[base:]
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = e.value(dst, m[k], depth+1); err != nil {
			return dst, err
		}
	}
	e.keys = e.keys[:base]
	return append(dst, '}'), nil
}

func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("document: encode JSON: %w", err)
	}
	return append(dst, b...), nil
}

// appendFloat is encoding/json's float64 encoder.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("document: encode JSON: unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's string encoder with HTML escaping on
// (json.Marshal's default).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
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
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
