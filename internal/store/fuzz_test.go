package store

// Format pin and fuzz target for the store's record scan. The crawler
// cache is a file on the agent's own disk, but Open trusts none of its
// bytes: it must either rebuild an index every key of which reads back,
// or say ErrCorrupt. Run with
//
//	go test -fuzz FuzzStoreScan ./internal/store
//
// In normal test runs only the seed corpus executes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// parentRecord encodes one record in the cache's earlier format:
// crc32(4) | flags | uvarint keyLen | uvarint valLen | key | value, the
// checksum covering everything after it.
func parentRecord(key string, value []byte) []byte {
	rec := []byte{0, 0, 0, 0, 0}
	rec = binary.AppendUvarint(rec, uint64(len(key)))
	rec = binary.AppendUvarint(rec, uint64(len(value)))
	rec = append(append(rec, key...), value...)
	binary.LittleEndian.PutUint32(rec, crc32.ChecksumIEEE(rec[4:]))
	return rec
}

// TestParentFormatIsCorrupt: a cache written in the earlier format is
// refused as ErrCorrupt and left as it was — not read as one torn record
// and emptied.
func TestParentFormatIsCorrupt(t *testing.T) {
	for _, n := range []int{0, 5, 127, 128, 200, 511, 3000, 20000} {
		path := filepath.Join(t.TempDir(), "docs.log")
		value := bytes.Repeat([]byte("<rdf/>"), n)[:n]
		data := append(parentRecord("http://swrec.example/people/a0", value), parentRecord("b", []byte("v"))...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				s.Close()
			}
			t.Fatalf("%d-byte value: Open = %v, want ErrCorrupt", n, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("%d-byte value: the refused file changed (%v)", n, err)
		}
	}
}

func FuzzStoreScan(f *testing.F) {
	path := filepath.Join(f.TempDir(), "docs.log")
	s, err := Open(path, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", "1"}, {"b", "two"}, {"a", "3"}, {"", ""}} {
		if err := s.Put(kv[0], []byte(kv[1])); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete("b"); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(parentRecord("http://swrec.example/people/a0", []byte("<rdf/>")))
	for _, cut := range []int{1, 8, 12, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:cut])
	}
	for _, off := range []int{0, 4, 8, 9, len(seed) - 2} {
		flipped := bytes.Clone(seed)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	// One file per fuzz worker process, rewritten for every input.
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open failed outside ErrCorrupt: %v", err)
			}
			return
		}
		want := contents(t, s)
		if err := s.Compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen after compact: %v", err)
		}
		defer s2.Close()
		got := contents(t, s2)
		if len(got) != len(want) {
			t.Fatalf("compact + reopen: %d keys, was %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("compact + reopen: %q = %q, was %q", k, got[k], v)
			}
		}
	})
}

// contents reads every key the store lists.
func contents(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, k := range s.Keys() {
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("listed key %q does not read: %v,%v", k, ok, err)
		}
		out[k] = string(v)
	}
	return out
}
