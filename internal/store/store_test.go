package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func open(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestPutGetDelete(t *testing.T) {
	s, _ := open(t)
	if err := s.Put("alice", []byte("homepage-v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("alice")
	if err != nil || !ok || string(v) != "homepage-v1" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := s.Get("bob"); ok {
		t.Fatal("phantom key")
	}
	if err := s.Delete("alice"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("alice"); ok {
		t.Fatal("deleted key still readable")
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatal("deleting absent key must be a no-op")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	s, _ := open(t)
	for i := 0; i < 10; i++ {
		if err := s.Put("k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || v[0] != 9 {
		t.Fatalf("Get = %v,%v,%v, want latest version", v, ok, err)
	}
	st := s.Stats()
	if st.DeadBytes == 0 {
		t.Fatal("overwrites must accumulate dead bytes")
	}
	if st.LiveKeys != 1 {
		t.Fatalf("LiveKeys = %d, want 1", st.LiveKeys)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	for k, v := range want {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("b", []byte("2v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Keys after reopen = %v", got)
	}
	v, ok, err := s2.Get("b")
	if err != nil || !ok || string(v) != "2v2" {
		t.Fatalf("Get(b) = %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := s2.Get("c"); ok {
		t.Fatal("tombstone not honored after reopen")
	}
}

func TestTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("casualty", []byte("this will be torn")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop off the last few bytes.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("torn tail must be repaired, got %v", err)
	}
	defer s2.Close()
	if _, ok, _ := s2.Get("casualty"); ok {
		t.Fatal("torn record must be dropped")
	}
	v, ok, err := s2.Get("good")
	if err != nil || !ok || string(v) != "value" {
		t.Fatalf("record before the tear lost: %q,%v,%v", v, ok, err)
	}
	// The store must be appendable again after repair.
	if err := s2.Put("after", []byte("repair")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s2.Get("after"); !ok || string(v) != "repair" {
		t.Fatal("append after repair broken")
	}
}

func TestCorruptMiddleDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k1", bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's value.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'y'}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt middle = %v, want ErrCorrupt", err)
	}
}

func TestCompact(t *testing.T) {
	s, path := open(t)
	for i := 0; i < 50; i++ {
		if err := s.Put("key", bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("other", []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("key"); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.FileBytes >= before.FileBytes {
		t.Fatalf("compact did not shrink: %d -> %d", before.FileBytes, after.FileBytes)
	}
	if after.DeadBytes != 0 {
		t.Fatalf("DeadBytes after compact = %d", after.DeadBytes)
	}
	v, ok, err := s.Get("other")
	if err != nil || !ok || string(v) != "keep me" {
		t.Fatalf("live data lost in compact: %q,%v,%v", v, ok, err)
	}
	// Store still writable and reopenable after compaction.
	if err := s.Put("post", []byte("compact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get("post"); !ok || string(v) != "compact" {
		t.Fatal("post-compact write lost after reopen")
	}
}

func TestClosedOperations(t *testing.T) {
	s, _ := open(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed = %v", err)
	}
	if _, _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed = %v", err)
	}
	if err := s.Delete("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete on closed = %v", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact on closed = %v", err)
	}
}

func TestKeyTooLarge(t *testing.T) {
	s, _ := open(t)
	big := string(bytes.Repeat([]byte("k"), maxKeyLen+1))
	if err := s.Put(big, nil); !errors.Is(err, ErrKeyTooLarge) {
		t.Fatalf("got %v, want ErrKeyTooLarge", err)
	}
	// A value Open would refuse as corrupt is never acknowledged.
	if err := s.Put("k", make([]byte, maxValueLen+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("got %v, want ErrValueTooLarge", err)
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	s, _ := open(t)
	if err := s.Put("", nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("")
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty key/value = %v,%v,%v", v, ok, err)
	}
}

func TestSyncEveryPut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "docs.log")
	s, err := Open(path, Options{SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get("k"); !ok || string(v) != "v" {
		t.Fatal("synced put unreadable")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := open(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%10)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := s.Get(key); err != nil || !ok || string(v) != key {
					t.Errorf("Get(%s) = %q,%v,%v", key, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 80 {
		t.Fatalf("Len = %d, want 80", s.Len())
	}
}

// TestCompactCrashRecovery simulates a crash in the middle of Compact:
// the partially written temp file is left behind, never renamed into
// place. Open must discard the orphan and serve the original log intact.
func TestCompactCrashRecovery(t *testing.T) {
	s, path := open(t)
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate the mid-compaction state: a torn temp file holding a
	// prefix of the real log plus trailing garbage.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, data[:len(data)/3]...), "garbage tail"...)
	tmpPath := path + ".compact"
	if err := os.WriteFile(tmpPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open after crashed compact: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatalf("orphaned %s not removed (stat err = %v)", tmpPath, err)
	}
	// Every record from the authoritative log survived.
	for i := 0; i < 20; i++ {
		v, ok, err := s2.Get(fmt.Sprintf("key-%d", i))
		if err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 32)) {
			t.Fatalf("key-%d = %q,%v,%v after recovery", i, v, ok, err)
		}
	}
	// And the recovered store compacts cleanly afterwards.
	if err := s2.Delete("key-0"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatalf("compact after recovery: %v", err)
	}
	if _, ok, _ := s2.Get("key-1"); !ok {
		t.Fatal("live key lost in post-recovery compact")
	}
}

func TestOpenErrors(t *testing.T) {
	// Path inside a nonexistent directory.
	if _, err := Open(filepath.Join(t.TempDir(), "no", "such", "dir", "x.log"), Options{}); err == nil {
		t.Fatal("nonexistent directory accepted")
	}
	// Path that is a directory.
	dir := t.TempDir()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("directory path accepted")
	}
}

func TestTinyTornFile(t *testing.T) {
	// A file holding fewer bytes than any record header is all torn tail:
	// it must open empty and be writable.
	path := filepath.Join(t.TempDir(), "tiny.log")
	if err := os.WriteFile(path, []byte{0x01, 0x02, 0x03}, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("tiny torn file: %v", err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get("k"); !ok || string(v) != "v" {
		t.Fatal("write after tiny-tail repair broken")
	}
}

func TestLargeValueRoundTrip(t *testing.T) {
	s, _ := open(t)
	big := bytes.Repeat([]byte("x"), 1<<20)
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("big")
	if err != nil || !ok || !bytes.Equal(v, big) {
		t.Fatalf("1MiB round trip failed: %v %v len=%d", ok, err, len(v))
	}
}

func TestKeysSorted(t *testing.T) {
	s, _ := open(t)
	for _, k := range []string{"zeta", "alpha", "mid"} {
		if err := s.Put(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "alpha" || keys[1] != "mid" || keys[2] != "zeta" {
		t.Fatalf("Keys = %v", keys)
	}
	if !s.Has("mid") || s.Has("nope") {
		t.Fatal("Has broken")
	}
}

// Property: a random sequence of puts/deletes matches a map model, both
// live and after reopen.
func TestModelEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		dir, err := os.MkdirTemp("", "storeprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "docs.log")
		s, err := Open(path, Options{})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		modelMap := map[string]string{}
		keys := []string{"a", "b", "c", "d", "e"}
		for i := 0; i < 120; i++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", rng.Intn(1000))
				if err := s.Put(k, []byte(v)); err != nil {
					return false
				}
				modelMap[k] = v
			case 2:
				if err := s.Delete(k); err != nil {
					return false
				}
				delete(modelMap, k)
			}
		}
		check := func(st *Store) bool {
			if st.Len() != len(modelMap) {
				return false
			}
			for k, want := range modelMap {
				v, ok, err := st.Get(k)
				if err != nil || !ok || string(v) != want {
					return false
				}
			}
			return true
		}
		if !check(s) {
			return false
		}
		if rng.Intn(2) == 0 {
			if err := s.Compact(); err != nil {
				return false
			}
			if !check(s) {
				return false
			}
		}
		if err := s.Close(); err != nil {
			return false
		}
		s2, err := Open(path, Options{})
		if err != nil {
			return false
		}
		defer s2.Close()
		return check(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
