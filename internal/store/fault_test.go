package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"swrec/internal/faultinject"
	"swrec/internal/frame"
)

// TestPutFaultsDoNotCorruptAckedRecords drives Puts through the
// fault-injection seam: failed writes (outright and torn) must leave
// every previously acknowledged record readable, both in-process and
// after a clean reopen that repairs the torn tail.
func TestPutFaultsDoNotCorruptAckedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.db")
	inj := faultinject.New(faultinject.Config{
		Seed: 77, WriteErrorRate: 0.1, TornWriteRate: 0.1,
	})
	s, err := Open(path, Options{WrapFile: func(f *os.File) frame.File { return inj.File(f) }})
	if err != nil {
		t.Fatal(err)
	}

	// Several overwrite rounds: the acked state is whatever the last
	// successful Put for each key wrote.
	expected := map[string][]byte{}
	var faults int
	for round := 0; round < 4; round++ {
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("doc-%d", i)
			val := []byte(fmt.Sprintf("round %d content of %s", round, key))
			if err := s.Put(key, val); err != nil {
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("unexpected non-injected error: %v", err)
				}
				faults++
				continue
			}
			expected[key] = val
		}
	}
	if faults == 0 {
		t.Fatal("no faults fired; pick another seed")
	}

	verify := func(st *Store, label string) {
		t.Helper()
		if st.Len() != len(expected) {
			t.Fatalf("%s: %d live keys, want %d", label, st.Len(), len(expected))
		}
		for key, want := range expected {
			got, ok, err := st.Get(key)
			if err != nil || !ok {
				t.Fatalf("%s: Get(%s) = %v,%v", label, key, ok, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: Get(%s) = %q, want %q", label, key, got, want)
			}
		}
	}
	verify(s, "in-process")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: the log must rebuild to exactly the acked state.
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after faults: %v", err)
	}
	defer s2.Close()
	verify(s2, "reopened")

	// And the rebuilt store is fully usable, including compaction.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	verify(s2, "compacted")
}

// tearOnce is a frame.File whose armed Write persists only its first 500
// bytes and fails: one crash-shaped append in an otherwise healthy run.
type tearOnce struct {
	*os.File
	armed bool
}

func (f *tearOnce) Write(p []byte) (int, error) {
	if !f.armed {
		return f.File.Write(p)
	}
	f.armed = false
	n, err := f.File.Write(p[:500])
	if err == nil {
		err = errors.New("torn write")
	}
	return n, err
}

// TestTornPutThenShorterPutReopens: a torn Put is cut back off the file,
// so the acknowledged Put after it is not stranded behind a torn record
// and the cache reopens with every acknowledged document.
func TestTornPutThenShorterPutReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	var tf *tearOnce
	s, err := Open(path, Options{WrapFile: func(f *os.File) frame.File {
		tf = &tearOnce{File: f}
		return tf
	}})
	if err != nil {
		t.Fatal(err)
	}
	onDisk := func(label string) {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fb := s.Stats().FileBytes; fb != info.Size() {
			t.Fatalf("%s: Stats().FileBytes = %d, file holds %d bytes", label, fb, info.Size())
		}
	}
	a := bytes.Repeat([]byte("a"), 100)
	if err := s.Put("a", a); err != nil {
		t.Fatal(err)
	}
	tf.armed = true
	if err := s.Put("b", bytes.Repeat([]byte("b"), 1000)); err == nil {
		t.Fatal("torn Put acknowledged")
	}
	onDisk("after the torn Put")
	if err := s.Put("c", []byte("short")); err != nil {
		t.Fatal(err)
	}
	onDisk("after the next Put")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after a torn Put: %v", err)
	}
	defer s2.Close()
	for key, want := range map[string][]byte{"a": a, "c": []byte("short")} {
		if got, ok, err := s2.Get(key); err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q,%v,%v", key, got, ok, err)
		}
	}
	if s2.Has("b") {
		t.Fatal("the torn Put's key is live")
	}
}
