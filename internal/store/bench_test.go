package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkOpen times the index rebuild of a 10,000-document cache:
//
//	go test -run '^$' -bench Open -benchmem ./internal/store/
//
// Each value is 3,650 bytes, the mean size of a homepage the small-scale
// generator exports (`swrec export`).
func BenchmarkOpen(b *testing.B) {
	const docs = 10_000
	path := filepath.Join(b.TempDir(), "docs.log")
	s, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	page := bytes.Repeat([]byte("<http://swrec.example/people/a0> <http://xmlns.com/foaf/0.1/knows> .\n"), 53)[:3650]
	for i := 0; i < docs; i++ {
		if err := s.Put(fmt.Sprintf("http://swrec.example/people/a%d", i), page); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != docs {
			b.Fatalf("rebuilt %d keys, want %d", s.Len(), docs)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
