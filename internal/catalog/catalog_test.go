package catalog

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/vector"
)

func def(name string, kind TableKind) TableDef {
	return TableDef{
		Name: name, Kind: kind,
		Columns: []storage.Column{{Name: "uri", Kind: vector.KindString}},
	}
}

func TestDefineAndLookup(t *testing.T) {
	c := New()
	if err := c.Define(def("F", Metadata)); err != nil {
		t.Fatal(err)
	}
	if err := c.Define(def("D", ActualData)); err != nil {
		t.Fatal(err)
	}
	if !c.IsMetadata("F") || c.IsMetadata("D") || c.IsMetadata("ghost") {
		t.Error("IsMetadata wrong")
	}
	got, ok := c.Table("F")
	if !ok || got.Name != "F" {
		t.Error("Table lookup failed")
	}
	if _, ok := c.Table("ghost"); ok {
		t.Error("phantom table found")
	}
}

func TestDefineValidation(t *testing.T) {
	c := New()
	if err := c.Define(TableDef{}); err == nil {
		t.Error("empty def accepted")
	}
	if err := c.Define(def("F", Metadata)); err != nil {
		t.Fatal(err)
	}
	if err := c.Define(def("F", Metadata)); err == nil {
		t.Error("duplicate def accepted")
	}
}

func TestTableLists(t *testing.T) {
	c := New()
	c.Define(def("R", Metadata))
	c.Define(def("D", ActualData))
	c.Define(def("F", Metadata))
	all := c.Tables()
	if len(all) != 3 || all[0] != "D" || all[1] != "F" || all[2] != "R" {
		t.Errorf("Tables = %v", all)
	}
	meta := c.MetadataTables()
	if len(meta) != 2 || meta[0] != "F" || meta[1] != "R" {
		t.Errorf("MetadataTables = %v", meta)
	}
}

func TestColumnIndex(t *testing.T) {
	d := TableDef{Name: "T", Columns: []storage.Column{
		{Name: "a", Kind: vector.KindInt64},
		{Name: "b", Kind: vector.KindString},
	}}
	if d.ColumnIndex("b") != 1 || d.ColumnIndex("z") != -1 {
		t.Error("ColumnIndex wrong")
	}
}

func TestKindStrings(t *testing.T) {
	if Metadata.String() != "metadata" || ActualData.String() != "actual-data" {
		t.Error("kind strings wrong")
	}
}

type fakeAdapter struct{ name string }

func (f *fakeAdapter) Name() string                               { return f.name }
func (f *fakeAdapter) Tables() (a, b, c TableDef)                 { return }
func (f *fakeAdapter) URIColumn() string                          { return "uri" }
func (f *fakeAdapter) RecordIDColumn() string                     { return "rid" }
func (f *fakeAdapter) DataSpanColumn() string                     { return "" }
func (f *fakeAdapter) RecordSpan(RecordMeta) (int64, int64, bool) { return 0, 0, false }
func (f *fakeAdapter) ExtractMetadata(path, uri string) (FileMeta, []RecordMeta, error) {
	return FileMeta{}, nil, nil
}
func (f *fakeAdapter) MountStream(path, uri string, keep func(RecordMeta) bool, batchRows int, emit func(*vector.Batch) error) error {
	return nil
}

func TestAdapterRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&fakeAdapter{name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&fakeAdapter{name: "x"}); err == nil {
		t.Error("duplicate adapter accepted")
	}
	if err := r.Register(&fakeAdapter{name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("x"); !ok {
		t.Error("Get missed registered adapter")
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get found phantom adapter")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "x" {
		t.Errorf("Names = %v", names)
	}
}
