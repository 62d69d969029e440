package main

import (
	"bytes"
	"fmt"
	"testing"
)

// stream renders the first n ops of one client's stream as bytes.
func stream(w *workload, seed int64, client, n int) []byte {
	var buf bytes.Buffer
	g := newGenerator(w, seed, client)
	for i := 0; i < n; i++ {
		o := g.next()
		fmt.Fprintf(&buf, "%s %v %s\n", o.kind, o.repeat, o.body)
	}
	return buf.Bytes()
}

func TestStreamsDeterministic(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < w.clients; c++ {
			a := stream(w, 7, c, 500)
			if b := stream(w, 7, c, 500); !bytes.Equal(a, b) {
				t.Errorf("%s client %d: same seed gave different streams", w.name, c)
			}
			if b := stream(w, 8, c, 500); bytes.Equal(a, b) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", w.name, c)
			}
		}
		if w.clients > 1 && bytes.Equal(stream(w, 7, 0, 500), stream(w, 7, 1, 500)) {
			t.Errorf("%s: clients 0 and 1 share a stream", w.name)
		}
	}
}

// TestMixedRepeatHitRatio drives mixed-repeat's streams through a live
// server and checks that the memo traffic the server counts is exactly
// the traffic the generator planned, and that the share of requests
// answered from the memo is the planned repeat share.
func TestMixedRepeatHitRatio(t *testing.T) {
	w, err := workloadByName("mixed-repeat")
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := setup(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.stop(); err != nil {
			t.Error(err)
		}
	}()
	before, err := l.stats()
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	lookups, hits, repeats, cachedReplies, memoOnly := 0, 0, 0, 0, 0
	for c := 0; c < w.clients; c++ {
		g := newGenerator(w, 3, c)
		for i := 0; i < n; i++ {
			o := g.next()
			lookups += o.lookups
			hits += o.hits
			if o.repeat {
				repeats++
			}
			if o.repeat || o.kind == kindBDD {
				memoOnly++
			}
			rep, _ := l.exchange(o)
			if !rep.ok() {
				t.Fatalf("%s: status %d: %v: %s", o.kind, rep.status, rep.err, rep.body)
			}
			p, err := parseReply(o.kind, rep.body)
			if err != nil {
				t.Fatal(err)
			}
			if p.cached() {
				cachedReplies++
			}
		}
	}
	after, err := l.stats()
	if err != nil {
		t.Fatal(err)
	}
	served := after.Memo.Hits - before.Memo.Hits + after.Memo.Collapsed - before.Memo.Collapsed
	total := served + after.Memo.Misses - before.Memo.Misses
	if served != int64(hits) || total != int64(lookups) {
		t.Errorf("server memo served %d of %d lookups, generator planned %d of %d", served, total, hits, lookups)
	}
	if cachedReplies != memoOnly {
		t.Errorf("%d replies came from the memo, planned %d (repeats plus warm BDD keys)", cachedReplies, memoOnly)
	}
	share := float64(repeats) / float64(w.clients*n)
	if share < w.repeat-0.03 || share > w.repeat+0.03 {
		t.Errorf("repeat share %.3f, planned %.2f", share, w.repeat)
	}
	t.Logf("memo.hit_ratio %.4f (%d/%d lookups), repeat share %.3f", float64(served)/float64(total), served, total, share)
}
