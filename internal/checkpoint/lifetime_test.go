//go:build go1.24

package checkpoint

import (
	"runtime"
	"testing"
	"weak"

	"swrec/internal/engine"
)

// TestBuffersLiveAsLongAsTheirViews: of the two buffers Load reads, the
// PEERS one lives only as long as a restored neighborhood not yet read —
// once every one is read, or dropped by full recompiles, a collection
// frees it — while the other, whose arrays the community's rows and the
// restored matrix adopted, lives as long as the restored community.
func TestBuffersLiveAsLongAsTheirViews(t *testing.T) {
	for _, how := range []string{"read", "recompile"} {
		t.Run(how, func(t *testing.T) {
			path, err := WriteImage(t.TempDir(), testImage(t, 7), nil)
			if err != nil {
				t.Fatal(err)
			}
			head, tail, err := readFile(path)
			if err != nil || len(tail) == 0 {
				t.Fatalf("fixture: %d+%d bytes read (%v)", len(head), len(tail), err)
			}
			headPtr, tailPtr := weak.Make(&head[0]), weak.Make(&tail[0])
			img, err := decode(head, tail, testOptions(), false)
			if err != nil {
				t.Fatal(err)
			}
			head, tail = nil, nil
			eng, err := img.Restore(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			comm, restored := img.Community, len(img.Peers)
			img = nil

			switch how {
			case "read":
				snap := eng.Snapshot()
				for _, id := range comm.Agents() {
					if _, ok := snap.CachedPeers(id, engine.Overrides{}); ok {
						restored--
					}
				}
				if restored != 0 {
					t.Fatalf("fixture: %d restored neighborhoods not under the default pipeline", restored)
				}
			case "recompile":
				// Twice: the engine keeps the snapshot before the current
				// one, whose caches a degraded answer may read.
				for range 2 {
					if _, err := eng.Swap(comm); err != nil {
						t.Fatal(err)
					}
				}
			}
			runtime.GC()
			runtime.GC()
			if tailPtr.Value() != nil {
				t.Fatal("the PEERS buffer outlived every restored neighborhood")
			}
			if headPtr.Value() == nil {
				t.Fatal("the adopted buffer was freed while the restored community can still read it")
			}
			runtime.KeepAlive(eng)
			runtime.KeepAlive(comm)
		})
	}
}
