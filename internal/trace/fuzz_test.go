package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"aiql/internal/gen"
	"aiql/internal/types"
)

// readOracle is the encoding/json decoder Read replaced, kept verbatim as
// the reference its single-pass successor must agree with.
func readOracle(r io.Reader) (*types.Dataset, error) {
	var entities []types.Entity
	var events []types.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch kind.Kind {
		case "entity":
			var rec entityRec
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			t, ok := types.ParseEntityType(rec.Type)
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown entity type %q", line, rec.Type)
			}
			entities = append(entities, types.Entity{
				ID: types.EntityID(rec.ID), Type: t, AgentID: rec.AgentID, Attrs: rec.Attrs,
			})
		case "event":
			var rec eventRec
			if err := json.Unmarshal(raw, &rec); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", line, err)
			}
			op, ok := types.ParseOp(rec.Op)
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown operation %q", line, rec.Op)
			}
			events = append(events, types.Event{
				ID: types.EventID(rec.ID), AgentID: rec.AgentID,
				Subject: types.EntityID(rec.Subject), Object: types.EntityID(rec.Object),
				Op: op, Start: rec.Start, End: rec.End, Seq: rec.Seq,
				Amount: rec.Amount, FailCode: rec.FailCode,
			})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record kind %q", line, kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return types.NewDataset(entities, events), nil
}

var linePrefix = regexp.MustCompile(`^trace: line \d+: `)

// checkAgainstOracle requires Read and readOracle to agree on in: both
// fail on the same line with the same class of error, or both return
// deeply equal datasets (nil and empty attrs maps included).
func checkAgainstOracle(t *testing.T, in []byte) {
	t.Helper()
	want, werr := readOracle(bytes.NewReader(in))
	got, gerr := Read(bytes.NewReader(in))
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("input %q:\noracle error: %v\nRead error:   %v", in, werr, gerr)
	}
	if werr != nil {
		if w, g := linePrefix.FindString(werr.Error()), linePrefix.FindString(gerr.Error()); w != g {
			t.Fatalf("input %q: error prefix %q, oracle %q (%v / %v)", in, g, w, gerr, werr)
		}
		for _, class := range []string{"unknown record kind", "unknown entity type", "unknown operation"} {
			if strings.Contains(werr.Error(), class) != strings.Contains(gerr.Error(), class) {
				t.Fatalf("input %q: error class %q differs:\noracle: %v\nRead:   %v", in, class, werr, gerr)
			}
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q:\nRead   %+v\noracle %+v", in, got, want)
	}
}

// fuzzSeeds covers each rule of the decoding contract in the package
// comment, plus a slice of generated scenario output.
func fuzzSeeds() []string {
	seeds := []string{
		// TestReadErrors.
		"not json\n",
		`{"kind":"widget"}` + "\n",
		`{"kind":"entity","id":1,"type":"registry"}` + "\n",
		`{"kind":"event","id":1,"op":"frobnicate"}` + "\n",
		// Escapes, surrogate pairs and lone surrogates.
		`{"kind":"entity","id":1,"type":"file","attrs":{"name":"C:\\Windows\\\"x\"\/\b\f\n\r\t"}}`,
		`{"kind":"entity","id":1,"type":"file","attrs":{"name":"\u00e9\ud83d\ude00\ud800\udc00"}}`,
		`{"kind":"entity","id":1,"type":"file","attrs":{"name":"\ud800","cmd":"\udc00x","user":"\ud83d\ud83d\ude00"}}`,
		`{"\u006bind":"\u0065vent","op":"\u0052EAD","id":7}`,
		`{"kind":"entity","type":"file","attrs":{"name":"\u12G4"}}`,
		`{"kind":"entity","type":"file","attrs":{"name":"\x"}}`,
		`{"kind":"entity","type":"file","attrs":{"name":"\'"}}`,
		// Invalid UTF-8 and raw control characters.
		"{\"kind\":\"entity\",\"id\":2,\"type\":\"proc\",\"attrs\":{\"exe_name\":\"a\xffb\xc3\",\"cmd\":\"\xed\xa0\x80\"}}",
		"{\"kind\":\"entity\",\"type\":\"file\",\"attrs\":{\"na\xffme\":\"x\"}}",
		"{\"kind\":\"entity\",\"type\":\"file\",\"attrs\":{\"name\":\"a\x01b\"}}",
		"{\"kind\":\"entity\",\"type\":\"file\",\"attrs\":{\"name\":\"a\tb\"}}",
		// Case-folded and duplicate keys; Unicode folding (KELVIN SIGN, LONG S).
		`{"KIND":"event","Op":"Write","ID":3,"AgentID":2,"SUBJECT":1,"oBjEcT":2,"Start":5,"END":6,"SEQ":1,"Amount":9,"FailCode":1}`,
		`{"kind":"event","op":"read","id":1,"id":2,"op":"write","kind":"entity","type":"file","attrs":{"a":"1"},"attrs":{"b":"2","a":"3"}}`,
		"{\"\u212aind\":\"event\",\"op\":\"read\",\"\u017feq\":4,\"\u017fubject\":1}",
		"{\"kind\":\"entity\",\"type\":\"networ\u212a\",\"\u0130d\":5}",
		`{"kind":"event","op":"exİt"}`,
		`{"kind":"Entity","type":"file"}`,
		// nulls.
		`{"kind":"entity","id":1,"type":"file","attrs":null}`,
		`{"kind":"entity","id":1,"type":"file","attrs":{}}`,
		`{"kind":"entity","id":1,"type":"file","attrs":{"name":null}}`,
		`{"kind":"entity","id":1,"type":"file","attrs":{"name":"x"},"attrs":null}`,
		`{"kind":"entity","id":1,"type":"file","attrs":null,"attrs":{"name":"y"}}`,
		`{"kind":"event","id":5,"id":null,"op":"read","op":null,"kind":null,"start":null}`,
		`{"kind":null}`,
		"null",
		`{"kind":"entity","type":null}`,
		// Wrong JSON types, in fields of this kind and of the other.
		`{"kind":1}`,
		`{"kind":"entity","type":"file","op":7,"start":"x","seq":[1]}`,
		`{"kind":"event","op":"read","type":7,"attrs":"x"}`,
		`{"kind":"entity","type":"file","attrs":[]}`,
		`{"kind":"entity","type":"file","attrs":{"name":1}}`,
		`{"kind":"entity","type":"file","attrs":{"name":{"x":[]}}}`,
		`{"kind":"event","op":"read","id":true}`,
		`{"kind":"entity","type":"file","id":-1}`,
		`{"kind":"entity","type":"file","agentid":"1"}`,
		`{"kind":"event","op":{"x":1}}`,
		`["kind","entity"]`, `"entity"`, `17`, `true`,
		// Floats, negatives and overflow in int fields.
		`{"kind":"event","op":"read","start":1.5}`,
		`{"kind":"event","op":"read","start":1e3}`,
		`{"kind":"event","op":"read","start":1E+3}`,
		`{"kind":"event","op":"read","start":-0,"end":-9223372036854775808,"amount":9223372036854775807}`,
		`{"kind":"event","op":"read","end":-9223372036854775809}`,
		`{"kind":"event","op":"read","amount":9223372036854775808}`,
		`{"kind":"event","op":"read","seq":18446744073709551615,"subject":0}`,
		`{"kind":"event","op":"read","seq":18446744073709551616}`,
		`{"kind":"event","op":"read","id":-1}`,
		`{"kind":"event","op":"read","id":-0}`,
		`{"kind":"event","op":"read","failcode":-3,"agentid":-2}`,
		`{"kind":"event","op":"read","start":01}`,
		`{"kind":"event","op":"read","start":-}`,
		`{"kind":"event","op":"read","start":1.}`,
		`{"kind":"event","op":"read","start":1e}`,
		// Nested unknown values.
		`{"kind":"event","op":"read","x":{"a":[1,-2.5e-3,true,false,null,"s",{"b":{}},[]]},"y":[[[]]]}`,
		`{"kind":"event","op":"read","x":{"a" 1}}`,
		`{"kind":"event","op":"read","x":[1,]}`,
		`{"kind":"event","op":"read","x":{,}}`,
		`{"kind":"event","op":"read","x":tru}`,
		`{"kind":"event","op":"read","x":nul,"y":1}`,
		// CRLF, blank and whitespace-only lines, trailing garbage.
		"{\"kind\":\"entity\",\"id\":1,\"type\":\"file\"}\r\n\r\n{\"kind\":\"event\",\"op\":\"read\"}\r\n",
		"{\"kind\":\"entity\",\"type\":\"file\"}\r\r\n",
		"\r",
		"\n\n\n",
		"  \n",
		" \t{ \"kind\" : \"entity\" , \"type\" : \"file\" } \t\r\n",
		`{"kind":"entity","type":"file"}x`,
		`{"kind":"entity","type":"file"}{}`,
		`{"kind":"entity","type":"file"`,
		`{"kind":"entity","type":"file",}`,
		`{"kind" "entity"}`,
		`{kind:"entity"}`,
		"",
	}
	ds := gen.Scenario(gen.Config{Hosts: 10, Days: 3, BackgroundPerHostDay: 5, Seed: 5})
	var buf bytes.Buffer
	if err := Write(&buf, types.NewDataset(ds.Entities[:12], ds.Events[:12])); err != nil {
		panic(err)
	}
	return append(seeds, buf.String())
}

// FuzzRead holds Read to readOracle on arbitrary input.
func FuzzRead(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkAgainstOracle)
}
