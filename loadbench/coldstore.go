package main

import (
	"context"
	"strings"
	"sync"
	"time"

	"crucial/internal/durability"
)

// timedStore wraps the cold store handed to the durability tier and
// times every Put, split by key namespace: WAL segments ("wal/...")
// against checkpoint snapshots (everything else the tier writes).
type timedStore struct {
	durability.Storage
	tr *tracer

	mu   sync.Mutex
	wal  putLog
	snap putLog
}

// putLog accumulates the Puts of one key namespace.
type putLog struct {
	bytes int64
	ms    []float64
}

func (s *timedStore) Put(ctx context.Context, key string, data []byte) error {
	id, start := s.tr.begin()
	t0 := time.Now()
	err := s.Storage.Put(ctx, key, data)
	s.record(key, len(data), time.Since(t0))
	s.tr.end(id, 0, -1, "coldstore.put", start)
	return err
}

// PutIfAbsent carries the checkpoint manifests.
func (s *timedStore) PutIfAbsent(ctx context.Context, key string, data []byte) (bool, error) {
	id, start := s.tr.begin()
	t0 := time.Now()
	created, err := s.Storage.PutIfAbsent(ctx, key, data)
	s.record(key, len(data), time.Since(t0))
	s.tr.end(id, 0, -1, "coldstore.put", start)
	return created, err
}

func (s *timedStore) record(key string, n int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &s.snap
	if strings.HasPrefix(key, "wal/") {
		l = &s.wal
	}
	l.bytes += int64(n)
	l.ms = append(l.ms, float64(d)/1e6)
}

// snapshot returns copies of both logs.
func (s *timedStore) snapshot() (wal, snap putLog) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := func(l putLog) putLog { return putLog{bytes: l.bytes, ms: append([]float64(nil), l.ms...)} }
	return cp(s.wal), cp(s.snap)
}

// since returns the Puts logged after an earlier snapshot of the log.
func (l putLog) since(before putLog) putLog {
	return putLog{bytes: l.bytes - before.bytes, ms: l.ms[len(before.ms):]}
}
