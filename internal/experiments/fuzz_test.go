package experiments

import (
	"bytes"
	"testing"
)

// FuzzDecodeJSON: arbitrary bytes fed to the results decoder must
// never panic — they either decode or surface an error. When they do
// decode, the re-encode must be a fixed point: EncodeJSON of the
// decoded slice decodes again to the same bytes, the round-trip
// property the cache and the HTTP layers rely on to serve stored
// results byte-identically.
func FuzzDecodeJSON(f *testing.F) {
	// Seed with real wire forms: a success, a failure, an empty slice,
	// and near-miss garbage.
	var seed bytes.Buffer
	if err := EncodeJSON(&seed, []Result{
		{ID: "E1", Table: &Table{ID: "E1", Title: "t", Headers: []string{"h"},
			Rows: [][]string{{"v"}}, Notes: []string{"n"}}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`[{"id":"E2","error":"boom"}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"id":1}]`))
	f.Add([]byte(`{"id":"E1"}`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"id":"E1","rows":[["a",1]]}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := DecodeJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected, never panicked: the contract
		}
		var first bytes.Buffer
		if err := EncodeJSON(&first, results); err != nil {
			t.Fatalf("decoded results do not re-encode: %v", err)
		}
		again, err := DecodeJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded bytes do not decode: %v", err)
		}
		var second bytes.Buffer
		if err := EncodeJSON(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encode∘decode not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
