package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// TestParamPutGetRoundTrip: parameter points are artifacts like any
// other — stored under id+params, invisible to other points and to the
// fixed entry.
func TestParamPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	want := tableResult("E2", "k=1 point")
	if err := s.PutParam("E2", "i0=0,i1=1,k=1", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetParam("E2", "i0=0,i1=1,k=1")
	if !ok || got.Table == nil || got.Table.Title != "k=1 point" {
		t.Fatalf("param round trip: ok=%v got=%+v", ok, got)
	}
	if _, ok := s.GetParam("E2", "i0=0,i1=1,k=2"); ok {
		t.Fatal("a different point hit the k=1 entry")
	}
	if _, ok := s.Get("E2"); ok {
		t.Fatal("the fixed entry hit a parameterized artifact")
	}
}

// TestParamEmptyDelegatesToFixed pins the aliasing contract: params ""
// is the fixed experiment's slot, both directions.
func TestParamEmptyDelegatesToFixed(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.PutParam("E2", "", tableResult("E2", "via param path")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("E2"); !ok || got.Table.Title != "via param path" {
		t.Fatalf("fixed Get missed the \"\"-params Put: ok=%v got=%+v", ok, got)
	}
	if err := s.Put("E2", tableResult("E2", "via fixed path")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetParam("E2", ""); !ok || got.Table.Title != "via fixed path" {
		t.Fatalf("\"\"-params Get missed the fixed Put: ok=%v got=%+v", ok, got)
	}
}

func TestParamPutRefusesFailedResult(t *testing.T) {
	s := mustOpen(t, Options{})
	if err := s.PutParam("E2", "k=1", experiments.Result{ID: "E2", Err: errors.New("boom")}); err == nil {
		t.Fatal("stored a failed parameterized result")
	}
	if err := s.PutParam("E2", "k=1", experiments.Result{ID: "E2"}); err == nil {
		t.Fatal("stored a tableless parameterized result")
	}
	if _, ok := s.GetParam("E2", "k=1"); ok {
		t.Fatal("refused PutParam still produced a hit")
	}
}

// TestParamKeySeparatesFromPrefixes: a parameter key whose canonical
// rendering spells like a prefix set must not collide with the
// five-part slice keys earlier generations of the store wrote (the
// "params" tag keeps the part streams apart), so a leftover slice file
// is never read as a parameter point.
func TestParamKeySeparatesFromPrefixes(t *testing.T) {
	p := ArtifactKey{ID: "E2", SpaceVersion: "v", Params: "0.1,1"}
	whole := ArtifactKey{ID: "E2", SpaceVersion: "v"}
	h := sha256.New()
	for _, part := range []string{p.ID, p.SpaceVersion, p.GoVersion, p.ModuleVersion, "0.1,1"} {
		fmt.Fprintf(h, "%d:%s", len(part), part)
	}
	if p.Fingerprint() == hex.EncodeToString(h.Sum(nil)) {
		t.Fatal("params key collides with a legacy prefixes key")
	}
	if p.Fingerprint() == whole.Fingerprint() {
		t.Fatal("params key collides with the whole-result key")
	}
}

// TestParamSurvivesReopen: parameterized artifacts persist like whole
// results — same directory, new Store, still warm.
func TestParamSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.PutParam("E15", "c=3,i0=0,i1=1", tableResult("E15", "c=3")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.GetParam("E15", "c=3,i0=0,i1=1"); !ok || got.Table.Title != "c=3" {
		t.Fatalf("reopened store missed the param entry: ok=%v got=%+v", ok, got)
	}
}

// TestSpaceVersionPartitionsParams: the same parameter point under
// different space versions is two artifacts — the per-family bump
// moves parameterized entries along with the fixed one.
func TestSpaceVersionPartitionsParams(t *testing.T) {
	dir := t.TempDir()
	v1, err := Open(dir, Options{SpaceVersion: func(string) string { return "fam/v1" }})
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.PutParam("E2", "k=1", tableResult("E2", "v1 point")); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dir, Options{SpaceVersion: func(string) string { return "fam/v2" }})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.GetParam("E2", "k=1"); ok {
		t.Fatal("a bumped space served the old generation's point")
	}
	if got, ok := v1.GetParam("E2", "k=1"); !ok || got.Table.Title != "v1 point" {
		t.Fatalf("old generation lost its own point: ok=%v got=%+v", ok, got)
	}
}

// TestPerFamilySpaceVersionIsSurgical is the store-level statement of
// the tentpole: a resolver that bumps one family invalidates that
// family's artifacts only.
func TestPerFamilySpaceVersionIsSurgical(t *testing.T) {
	dir := t.TempDir()
	base := func(string) string { return "gen" }
	bumped := func(id string) string {
		if id == "E2" {
			return "gen+E2/v2"
		}
		return "gen"
	}
	s1, err := Open(dir, Options{SpaceVersion: base})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E2", "E7"} {
		if err := s1.Put(id, tableResult(id, "warm "+id)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, Options{SpaceVersion: bumped})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("E2"); ok {
		t.Fatal("bumped family served its pre-bump artifact")
	}
	for _, id := range []string{"E1", "E7"} {
		if got, ok := s2.Get(id); !ok || got.Table.Title != "warm "+id {
			t.Fatalf("unbumped %s went cold under an E2-only bump: ok=%v", id, ok)
		}
	}
}
