// Package trace serializes datasets as JSON-lines, the interchange format
// between the generator tool (cmd/aiqlgen) and the query CLI (cmd/aiql) —
// the stand-in for the paper's agent-to-server event stream — and the body
// format of aiqld's /ingest.
//
// Each line is one record: entity records first, then event records, both
// tagged with a "kind" discriminator so streams are self-describing and can
// be concatenated.
//
// # Decoding contract
//
// Write emits lines with encoding/json. Read is a single-pass,
// reflection-free decoder that accepts and rejects exactly what
// json.Unmarshal into the wire structs below would, line by line:
//
//   - Lines split as bufio.ScanLines splits them: at '\n', with one
//     trailing '\r' dropped. Empty lines are skipped; a line of only
//     whitespace is an error.
//   - Each line is one JSON value (RFC 8259 grammar, whitespace around it
//     allowed). Only an object can carry a record; a top-level null is a
//     record of kind "", anything else is an error.
//   - Keys match field names case-insensitively under Unicode simple
//     folding, and the last duplicate wins. null leaves a field as it was;
//     on "attrs" it resets the map to nil. A repeated "attrs" object merges
//     into the map decoded so far, and an attrs member whose value is null
//     is stored as "".
//   - Keys that are not fields of the line's record kind are skipped but
//     still syntax-checked; a value of the wrong JSON type in a field of
//     that kind is an error.
//   - Integer fields take only integer literals in range: fractions,
//     exponents and overflow are errors, and unsigned fields (id, subject,
//     object, seq) also reject any leading '-'.
//   - Strings are unescaped as encoding/json does: invalid UTF-8 and lone
//     surrogates become U+FFFD, raw control characters are errors.
//   - "kind" must be exactly "entity" or "event"; "type" and "op" are
//     matched by types.ParseEntityType and types.ParseOp.
//
// Decoding is bounded: a line must end within 16 MiB (the limit of the
// bufio.Scanner this decoder replaced; a longer one fails with an error
// wrapping bufio.ErrTooLong), nesting deeper than encoding/json's 10,000
// levels is rejected without recursion, and only a small read buffer is
// allocated per call. Every decode error reads "trace: line N: ...";
// errors from the underlying reader are wrapped, so callers can still
// match them with errors.As.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"aiql/internal/types"
)

// entityRec is the wire form of an entity.
type entityRec struct {
	Kind    string            `json:"kind"`
	ID      uint64            `json:"id"`
	Type    string            `json:"type"`
	AgentID int               `json:"agentid"`
	Attrs   map[string]string `json:"attrs"`
}

// eventRec is the wire form of an event.
type eventRec struct {
	Kind     string `json:"kind"`
	ID       uint64 `json:"id"`
	AgentID  int    `json:"agentid"`
	Subject  uint64 `json:"subject"`
	Object   uint64 `json:"object"`
	Op       string `json:"op"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Seq      uint64 `json:"seq"`
	Amount   int64  `json:"amount,omitempty"`
	FailCode int    `json:"failcode,omitempty"`
}

// Write streams a dataset as JSON lines.
func Write(w io.Writer, d *types.Dataset) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range d.Entities {
		e := &d.Entities[i]
		rec := entityRec{
			Kind: "entity", ID: uint64(e.ID), Type: e.Type.String(),
			AgentID: e.AgentID, Attrs: e.Attrs,
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("trace: write entity %d: %w", e.ID, err)
		}
	}
	for i := range d.Events {
		ev := &d.Events[i]
		rec := eventRec{
			Kind: "event", ID: uint64(ev.ID), AgentID: ev.AgentID,
			Subject: uint64(ev.Subject), Object: uint64(ev.Object),
			Op: ev.Op.String(), Start: ev.Start, End: ev.End,
			Seq: ev.Seq, Amount: ev.Amount, FailCode: ev.FailCode,
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("trace: write event %d: %w", ev.ID, err)
		}
	}
	return bw.Flush()
}

const (
	// maxLine bounds a line: one that has not ended after this many bytes
	// fails with bufio.ErrTooLong, as bufio.Scanner's 16 MiB token cap did.
	maxLine = 1 << 24
	// maxDepth is encoding/json's nesting limit.
	maxDepth = 10000
	// readBufSize is the read buffer; longer lines spill into decoder.long.
	readBufSize = 4096
)

// Read parses a JSON-lines stream back into a dataset.
func Read(r io.Reader) (*types.Dataset, error) {
	d := decoder{br: bufio.NewReaderSize(r, readBufSize)}
	var entities []types.Entity
	var events []types.Event
	for {
		p, err := d.nextLine()
		if err != nil {
			return nil, err
		}
		if p == nil {
			break
		}
		if len(p) == 0 {
			continue
		}
		var rec record
		if err := d.record(p, &rec); err != nil {
			return nil, d.errorf("%w", err)
		}
		if rec.kindErr != nil {
			return nil, d.errorf("%w", rec.kindErr)
		}
		switch string(rec.kind) {
		case "entity":
			if err := firstErr(rec.sharedErr, rec.entityErr); err != nil {
				return nil, d.errorf("%w", err)
			}
			t, ok := types.ParseEntityType(string(rec.typ))
			if !ok {
				return nil, d.errorf("unknown entity type %q", rec.typ)
			}
			entities = append(entities, types.Entity{
				ID: types.EntityID(rec.id), Type: t, AgentID: rec.agentID, Attrs: rec.attrs,
			})
		case "event":
			if err := firstErr(rec.sharedErr, rec.eventErr); err != nil {
				return nil, d.errorf("%w", err)
			}
			op, ok := types.ParseOp(string(rec.op))
			if !ok {
				return nil, d.errorf("unknown operation %q", rec.op)
			}
			events = append(events, types.Event{
				ID: types.EventID(rec.id), AgentID: rec.agentID,
				Subject: types.EntityID(rec.subject), Object: types.EntityID(rec.object),
				Op: op, Start: rec.start, End: rec.end, Seq: rec.seq,
				Amount: rec.amount, FailCode: rec.failCode,
			})
		default:
			return nil, d.errorf("unknown record kind %q", rec.kind)
		}
	}
	return types.NewDataset(entities, events), nil
}

// record is the union of entityRec and eventRec, decoded in one pass
// before the line's kind is known. A value of the wrong JSON type is an
// error only for the kinds that have that field, so type errors are kept
// per kind and judged once the final "kind" is known.
type record struct {
	kind, typ, op       []byte // alias the line or a decoder scratch buffer
	id, subject, object uint64
	seq                 uint64
	agentID, failCode   int
	start, end, amount  int64
	attrs               map[string]string
	kindErr             error // on "kind" itself, or a non-object line
	sharedErr           error // on id or agentid
	entityErr, eventErr error // on a field only that kind has
}

// field identifies a record key after case folding.
type field uint8

const (
	fUnknown field = iota
	fKind
	fID
	fAgentID
	fType
	fAttrs
	fSubject
	fObject
	fOp
	fStart
	fEnd
	fSeq
	fAmount
	fFailCode
)

var fieldNames = [...]string{
	fKind: "kind", fID: "id", fAgentID: "agentid", fType: "type", fAttrs: "attrs",
	fSubject: "subject", fObject: "object", fOp: "op", fStart: "start",
	fEnd: "end", fSeq: "seq", fAmount: "amount", fFailCode: "failcode",
}

// maxFieldKey bounds the raw length of a key that can name a field: eight
// runes, each at most three bytes (U+212A KELVIN SIGN folds to 'K').
const maxFieldKey = 8 * 3

// fieldOf matches a key as encoding/json matches struct field names: by
// exact name, else by Unicode simple folding.
func fieldOf(key []byte) field {
	if f := fieldNamed(key); f != fUnknown || len(key) > maxFieldKey {
		return f
	}
	var arr [maxFieldKey * utf8.UTFMax]byte
	folded := foldName(arr[:0], key)
	// foldName upper-cases ASCII; the field names are lower case.
	for i, c := range folded {
		if 'A' <= c && c <= 'Z' {
			folded[i] = c + 'a' - 'A'
		}
	}
	return fieldNamed(folded)
}

func fieldNamed(name []byte) field {
	switch string(name) {
	case "kind":
		return fKind
	case "id":
		return fID
	case "agentid":
		return fAgentID
	case "type":
		return fType
	case "attrs":
		return fAttrs
	case "subject":
		return fSubject
	case "object":
		return fObject
	case "op":
		return fOp
	case "start":
		return fStart
	case "end":
		return fEnd
	case "seq":
		return fSeq
	case "amount":
		return fAmount
	case "failcode":
		return fFailCode
	}
	return fUnknown
}

// foldName appends the case-folded form of in to out: ASCII letters
// upper-cased, other runes mapped to the smallest rune of their simple
// fold orbit — encoding/json's field-name folding.
func foldName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// attrKeys interns the entity attribute names agents send, so decoding
// an attrs map allocates only its values.
var attrKeys = func() map[string]string {
	m := make(map[string]string)
	for _, k := range []string{
		types.AttrName, types.AttrOwner, types.AttrGroup, types.AttrVolID,
		types.AttrDataID, types.AttrPID, types.AttrExeName, types.AttrUser,
		types.AttrCmd, types.AttrSignature, types.AttrSrcIP, types.AttrDstIP,
		types.AttrSrcPort, types.AttrDstPort, types.AttrProtocol,
	} {
		m[k] = k
	}
	return m
}()

func internKey(b []byte) string {
	if s, ok := attrKeys[string(b)]; ok {
		return s
	}
	return string(b)
}

// decoder holds the per-call state of Read: the line reader and scratch
// buffers reused from line to line.
type decoder struct {
	br   *bufio.Reader
	line int
	long []byte // a line longer than the read buffer, assembled

	p []byte // the line being decoded
	i int    // offset of the next unread byte of p

	// Unescaped strings land in scratch buffers when they cannot alias
	// the line; kind, type and op each keep their own until the line ends.
	keyBuf, kindBuf, typBuf, opBuf []byte
	valBuf                         []byte     // the values of one attrs object
	attrs                          []attrSpan // its members, in order
	stack                          []byte     // open containers of a skipped value
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("trace: line %d: "+format, append([]any{d.line}, args...)...)
}

// nextLine returns the next line without its terminator, nil at the end
// of input. The slice is valid until the next call.
func (d *decoder) nextLine() ([]byte, error) {
	d.long = d.long[:0]
	for {
		chunk, err := d.br.ReadSlice('\n')
		full := errors.Is(err, bufio.ErrBufferFull)
		if len(d.long) > 0 || full {
			d.long = append(d.long, chunk...)
			chunk = d.long
		}
		switch {
		case err == nil:
			chunk = chunk[:len(chunk)-1]
		case full:
			if len(chunk) >= maxLine {
				d.line++
				return nil, d.errorf("%w", bufio.ErrTooLong)
			}
			continue
		case err == io.EOF:
			if len(chunk) == 0 {
				return nil, nil
			}
		default:
			// The unterminated tail before a read error is not a line: the
			// reader's error, not a truncated record, is the failure.
			return nil, fmt.Errorf("trace: %w", err)
		}
		d.line++
		if len(chunk) >= maxLine {
			return nil, d.errorf("%w", bufio.ErrTooLong)
		}
		if n := len(chunk); n > 0 && chunk[n-1] == '\r' {
			chunk = chunk[:n-1]
		}
		return chunk, nil
	}
}

// record decodes one line into rec. It returns syntax errors; type errors
// are left on rec.
func (d *decoder) record(p []byte, rec *record) error {
	d.p, d.i = p, 0
	if err := d.expectValue(); err != nil {
		return err
	}
	if d.p[d.i] != '{' {
		c := d.p[d.i]
		if err := d.skipValue(0); err != nil {
			return err
		}
		if c != 'n' {
			rec.kindErr = typeError(c, "record")
		}
		return d.end()
	}
	d.i++
	err := d.members(func(key []byte) error {
		f := fieldOf(key)
		var terr, err error
		switch f {
		case fKind:
			terr, err = d.stringValue(&rec.kind, &d.kindBuf)
		case fID:
			terr, err = d.uintValue(&rec.id)
		case fAgentID:
			terr, err = d.intValue(&rec.agentID)
		case fType:
			terr, err = d.stringValue(&rec.typ, &d.typBuf)
		case fAttrs:
			terr, err = d.attrsValue(&rec.attrs)
		case fSubject:
			terr, err = d.uintValue(&rec.subject)
		case fObject:
			terr, err = d.uintValue(&rec.object)
		case fOp:
			terr, err = d.stringValue(&rec.op, &d.opBuf)
		case fStart:
			terr, err = d.int64Value(&rec.start)
		case fEnd:
			terr, err = d.int64Value(&rec.end)
		case fSeq:
			terr, err = d.uintValue(&rec.seq)
		case fAmount:
			terr, err = d.int64Value(&rec.amount)
		case fFailCode:
			terr, err = d.intValue(&rec.failCode)
		default:
			return d.skipValue(1)
		}
		if terr != nil {
			terr = fmt.Errorf("field %s: %w", fieldNames[f], terr)
			switch f {
			case fKind:
				rec.kindErr = firstErr(rec.kindErr, terr)
			case fID, fAgentID:
				rec.sharedErr = firstErr(rec.sharedErr, terr)
			case fType, fAttrs:
				rec.entityErr = firstErr(rec.entityErr, terr)
			default:
				rec.eventErr = firstErr(rec.eventErr, terr)
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.end()
}

func firstErr(have, err error) error {
	if have != nil {
		return have
	}
	return err
}

// members decodes the members of the object whose '{' was just consumed,
// calling member with each key positioned at its value. The key slice is
// only valid during the call.
func (d *decoder) members(member func(key []byte) error) error {
	d.ws()
	if d.i < len(d.p) && d.p[d.i] == '}' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if d.i >= len(d.p) || d.p[d.i] != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.str(&d.keyBuf)
		if err != nil {
			return err
		}
		d.ws()
		if d.i >= len(d.p) || d.p[d.i] != ':' {
			return d.syntaxError("after object key")
		}
		d.i++
		if err := d.expectValue(); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		d.ws()
		if d.i < len(d.p) {
			switch d.p[d.i] {
			case ',':
				d.i++
				continue
			case '}':
				d.i++
				return nil
			}
		}
		return d.syntaxError("after object key:value pair")
	}
}

// end checks that only whitespace follows the line's value.
func (d *decoder) end() error {
	d.ws()
	if d.i < len(d.p) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

func (d *decoder) ws() {
	for d.i < len(d.p) {
		if c := d.p[d.i]; c > ' ' || c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return
		}
		d.i++
	}
}

// expectValue skips whitespace and checks that a value follows.
func (d *decoder) expectValue() error {
	d.ws()
	if d.i >= len(d.p) {
		return errUnexpectedEnd
	}
	return nil
}

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

func (d *decoder) syntaxError(context string) error {
	if d.i >= len(d.p) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %+q %s (offset %d)", rune(d.p[d.i]), context, d.i)
}

// typeError describes a JSON value, by its first byte, that does not fit
// the Go type it was decoded into.
func typeError(c byte, into string) error {
	what := "number"
	switch c {
	case '"':
		what = "string"
	case 't', 'f':
		what = "bool"
	case '[':
		what = "array"
	case '{':
		what = "object"
	}
	return fmt.Errorf("cannot decode %s into %s", what, into)
}

// stringValue decodes a string field: a string is stored in *dst
// (aliasing the line, or *buf when it had to be unescaped), null leaves
// *dst as it was, and anything else is a type error.
func (d *decoder) stringValue(dst *[]byte, buf *[]byte) (terr, err error) {
	switch c := d.p[d.i]; c {
	case '"':
		s, err := d.str(buf)
		if err == nil {
			*dst = s
		}
		return nil, err
	case 'n':
		return nil, d.literal("null")
	default:
		return typeError(c, "string"), d.skipValue(1)
	}
}

// uintValue, int64Value and intValue decode integer fields; null leaves
// the field as it was.
func (d *decoder) uintValue(dst *uint64) (terr, err error) {
	tok, terr, err := d.intToken()
	if tok == nil {
		return terr, err
	}
	n, ok := parseUint(tok)
	if !ok {
		return fmt.Errorf("cannot decode number %s into uint64", tok), nil
	}
	*dst = n
	return nil, nil
}

func (d *decoder) int64Value(dst *int64) (terr, err error) {
	tok, terr, err := d.intToken()
	if tok == nil {
		return terr, err
	}
	n, ok := parseInt(tok)
	if !ok {
		return fmt.Errorf("cannot decode number %s into int64", tok), nil
	}
	*dst = n
	return nil, nil
}

func (d *decoder) intValue(dst *int) (terr, err error) {
	tok, terr, err := d.intToken()
	if tok == nil {
		return terr, err
	}
	n, ok := parseInt(tok)
	if !ok || int64(int(n)) != n {
		return fmt.Errorf("cannot decode number %s into int", tok), nil
	}
	*dst = int(n)
	return nil, nil
}

// intToken reads the value of an integer field. It returns the number's
// bytes, or nil for null and for a value of another type (with terr set).
func (d *decoder) intToken() (tok []byte, terr, err error) {
	switch c := d.p[d.i]; {
	case c == '-' || '0' <= c && c <= '9':
		start := d.i
		if err := d.number(); err != nil {
			return nil, nil, err
		}
		return d.p[start:d.i], nil, nil
	case c == 'n':
		return nil, nil, d.literal("null")
	default:
		return nil, typeError(c, "integer"), d.skipValue(1)
	}
}

// parseUint parses a JSON number as a uint64; fractions, exponents,
// signs and overflow fail.
func parseUint(tok []byte) (uint64, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	var n uint64
	for i, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		// Up to 19 digits cannot overflow; past that, check each step.
		if i >= 19 && n > (1<<64-1-uint64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// parseInt parses a JSON number as an int64; fractions, exponents and
// overflow fail.
func parseInt(tok []byte) (int64, bool) {
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	u, ok := parseUint(tok)
	switch {
	case !ok:
		return 0, false
	case neg && u <= 1<<63:
		return -int64(u-1) - 1, true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// attrsValue decodes the attrs map: an object merges into *dst (made on
// first use), null resets it to nil, anything else is a type error. The
// values of one object share a single string allocation.
func (d *decoder) attrsValue(dst *map[string]string) (terr, err error) {
	switch c := d.p[d.i]; c {
	case '{':
		d.i++
		d.valBuf, d.attrs = d.valBuf[:0], d.attrs[:0]
		err = d.members(func(key []byte) error {
			a := attrSpan{key: internKey(key), start: len(d.valBuf)}
			switch c := d.p[d.i]; c {
			case '"':
				raw, plain, err := d.scanString()
				if err != nil {
					return err
				}
				if plain {
					d.valBuf = append(d.valBuf, raw...)
				} else {
					d.valBuf = unescape(d.valBuf, raw)
				}
			case 'n':
				if err := d.literal("null"); err != nil {
					return err
				}
			default:
				terr = firstErr(terr, typeError(c, "string"))
				if err := d.skipValue(2); err != nil {
					return err
				}
			}
			a.end = len(d.valBuf)
			d.attrs = append(d.attrs, a)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if *dst == nil {
			*dst = make(map[string]string, len(d.attrs))
		}
		vals := string(d.valBuf)
		for _, a := range d.attrs {
			(*dst)[a.key] = vals[a.start:a.end]
		}
		return terr, nil
	case 'n':
		*dst = nil
		return nil, d.literal("null")
	default:
		return typeError(c, "map"), d.skipValue(1)
	}
}

// attrSpan is one decoded attrs member: its value is
// decoder.valBuf[start:end].
type attrSpan struct {
	key        string
	start, end int
}

// str decodes the string at d.p[d.i] == '"'. Its contents alias the line
// when no unescaping or UTF-8 repair is needed, else they are rebuilt in
// *buf.
func (d *decoder) str(buf *[]byte) ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	*buf = unescape((*buf)[:0], raw)
	return *buf, nil
}

// scanString validates the string at d.p[d.i] == '"' and moves past it.
// It returns the raw contents and whether they are plain: free of escapes
// and valid UTF-8.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	p := d.p
	start := d.i + 1
	plain = true
	for i := start; i < len(p); {
		switch c := p[i]; {
		case c == '"':
			d.i = i + 1
			return p[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(p) {
				return nil, false, errUnexpectedEnd
			}
			switch p[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(p) {
						return nil, false, errUnexpectedEnd
					}
					if !isHex(p[j]) {
						d.i = j
						return nil, false, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.i = i + 1
				return nil, false, d.syntaxError("in string escape code")
			}
		case c < ' ':
			d.i = i
			return nil, false, d.syntaxError("in string literal")
		case c < utf8.RuneSelf:
			i++
		case plain:
			r, size := utf8.DecodeRune(p[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		default:
			i++
		}
	}
	return nil, false, errUnexpectedEnd
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unescape appends the decoded form of validated string contents to b,
// as encoding/json decodes them: escapes resolved, surrogate pairs joined,
// and lone surrogates and invalid UTF-8 replaced by U+FFFD.
func unescape(b, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number validates the JSON number at d.p[d.i] and moves past it.
func (d *decoder) number() error {
	p := d.p
	i := d.i
	if p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		i = digits(p, i)
	default:
		d.i = i
		return d.syntaxError("in numeric literal")
	}
	if i < len(p) && p[i] == '.' {
		i++
		if i >= len(p) || p[i] < '0' || p[i] > '9' {
			d.i = i
			return d.syntaxError("after decimal point in numeric literal")
		}
		i = digits(p, i)
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		if i >= len(p) || p[i] < '0' || p[i] > '9' {
			d.i = i
			return d.syntaxError("in exponent of numeric literal")
		}
		i = digits(p, i)
	}
	d.i = i
	return nil
}

func digits(p []byte, i int) int {
	for i < len(p) && '0' <= p[i] && p[i] <= '9' {
		i++
	}
	return i
}

// literal consumes the literal word (true, false or null) at d.p[d.i].
func (d *decoder) literal(word string) error {
	for j := 0; j < len(word); j++ {
		if d.i >= len(d.p) || d.p[d.i] != word[j] {
			return d.syntaxError("in literal " + word)
		}
		d.i++
	}
	return nil
}

// skipValue validates and moves past the value at d.p[d.i], which sits
// inside depth open containers. Nesting is tracked on an explicit stack,
// so hostile depth costs one byte per level, never a goroutine stack.
func (d *decoder) skipValue(depth int) error {
	stack := d.stack[:0]
	defer func() { d.stack = stack[:0] }()
	for {
		// A value starts at d.i.
		if err := d.expectValue(); err != nil {
			return err
		}
		switch c := d.p[d.i]; {
		case c == '{' || c == '[':
			if depth+len(stack)+1 > maxDepth {
				return errors.New("exceeded max depth")
			}
			stack = append(stack, c)
			d.i++
			d.ws()
			if d.i < len(d.p) && d.p[d.i] == c+2 { // '{'+2 == '}', '['+2 == ']'
				d.i++
				stack = stack[:len(stack)-1]
				break
			}
			if c == '{' {
				if err := d.objectKey(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if err := d.number(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.syntaxError("looking for beginning of value")
		}
		// A value ended: close containers until one continues.
		for {
			if len(stack) == 0 {
				return nil
			}
			d.ws()
			if d.i >= len(d.p) {
				return errUnexpectedEnd
			}
			top := stack[len(stack)-1]
			if d.p[d.i] == top+2 {
				d.i++
				stack = stack[:len(stack)-1]
				continue
			}
			if d.p[d.i] != ',' {
				if top == '{' {
					return d.syntaxError("after object key:value pair")
				}
				return d.syntaxError("after array element")
			}
			d.i++
			if top == '{' {
				if err := d.objectKey(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// objectKey validates an object key and its colon inside a skipped value.
func (d *decoder) objectKey() error {
	d.ws()
	if d.i >= len(d.p) || d.p[d.i] != '"' {
		return d.syntaxError("looking for beginning of object key string")
	}
	if _, _, err := d.scanString(); err != nil {
		return err
	}
	d.ws()
	if d.i >= len(d.p) || d.p[d.i] != ':' {
		return d.syntaxError("after object key")
	}
	d.i++
	return nil
}
