package wal

import (
	"fmt"
	"testing"
)

// Write-path benchmarks for the durable log:
//
//	go test -bench=. -benchmem ./internal/wal/
//
// Append is dominated by the per-batch fsync, so the NoSync variants
// isolate the encoding + buffered-write cost and the batch-size sweep
// shows the group-commit amortization.

func BenchmarkAppendNoSync(b *testing.B) {
	for _, batch := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			ms := muts(batch, 0)
			b.ReportAllocs()
			b.SetBytes(int64(batch))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.Append(ms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAppendFsync(b *testing.B) {
	for _, batch := range []int{1, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			ms := muts(batch, 0)
			b.ReportAllocs()
			b.SetBytes(int64(batch))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.Append(ms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplay(b *testing.B) {
	const records = 10_000
	dir := b.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	ms := muts(records, 0)
	if _, _, err := w.Append(ms); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(records)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		w, err := OpenReplay(dir, Options{NoSync: true}, 1, func(seq uint64, m Mutation) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d, want %d", n, records)
		}
		w.Close()
	}
}
