package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// runLive is reads and writes at once. An open-loop feeder posts one small
// binary frame per request at a fixed rate, so the generation moves
// liveRate times a second; beside it a closed-loop client queries a hot set
// that fits in the cache. Latencies are the client's POST /query times.
// The rate is the write side's: records per second of a frame's time from
// send to ack, median over frames. The closed-loop query rate goes to
// stderr: it is the mean query time's reciprocal, which the frame rebuilds
// dominate, and it moved with the host's CPU steal by more than the bound
// between runs, while the medians held.
func runLive(e *env, cfg config) (*outcome, error) {
	type liveState struct {
		*served
		frames [][]byte
		sizes  []int
	}
	st, setup, err := setUp(e, cfg, func(se *env) (liveState, error) {
		s, err := setUpServed(se, cfg)
		if err != nil {
			return liveState{}, err
		}
		fr := frames(s.in.recs, cfg.liveFrame)
		sizes := make([]int, len(fr))
		for i := range sizes {
			sizes[i] = min(cfg.liveFrame, len(s.in.recs)-i*cfg.liveFrame)
		}
		s.in.recs = nil // framed; the copies would only add to the program's GC work
		return liveState{s, fr, sizes}, nil
	})
	if err != nil {
		return nil, err
	}
	_, _, g0, err := st.study.Counts()
	if err != nil {
		return nil, err
	}
	hot := buildHotSet(st.in.tally, cfg.hotSet, cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed))
	o := &outcome{setup: setup, tailQ: 0.99}
	o.note("%s", st.in.describe())

	feedClient := e.newClient(1)
	stop := make(chan struct{})
	feed := &liveFeed{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feed.run(e, cfg, feedClient, st.http.url, st.frames, st.sizes, stop)
	}()
	stopFeed := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopFeed()

	queryClient := e.newClient(1)
	seen := newBodies()
	type sample struct {
		gen uint64
		q   int
		a   answer
	}
	var samples []sample
	var queries int64
	var queryRates []float64
	start := time.Now()
	for round := 0; cfg.more(start, round); round++ {
		var busy time.Duration
		var lat []time.Duration
		for i := 0; i < cfg.liveQueries; i++ {
			qi := rng.Intn(len(hot))
			body, gen, _, d, err := timedQuery(e, queryClient, st.http.url, hot[qi].text)
			if err != nil {
				return o, err
			}
			queries++
			lat = append(lat, d)
			busy += d
			first, err := seen.see(hot[qi].text, gen, body)
			if err != nil {
				return o, err
			}
			if first {
				a, err := decodeAnswer(hot[qi].text, body)
				if err != nil {
					return o, err
				}
				a.gen = gen
				samples = append(samples, sample{gen, qi, a})
			}
		}
		queryRates = append(queryRates, float64(cfg.liveQueries)/busy.Seconds())
		o.endRound(lat)
	}
	stopFeed()
	if feed.err != nil {
		return o, feed.err
	}
	o.attempted = queries + int64(feed.sent)
	o.rates = []float64{median(feed.rates)}

	// The feeder posts serially and every POST returns after its records
	// merged, so generation g holds the preload plus a prefix of the frames
	// sent: replay the prefixes to check every sampled answer.
	sort.Slice(samples, func(i, j int) bool { return samples[i].gen < samples[j].gen })
	cur := newTally()
	cur.addTally(st.in.tally)
	next, at := 0, g0
	for _, s := range samples {
		for at < s.gen && next < feed.sent {
			f := next % len(st.frames)
			for _, r := range st.in.sums[f*cfg.liveFrame : f*cfg.liveFrame+st.sizes[f]] {
				cur.add(r)
			}
			at += uint64(st.sizes[f])
			next++
		}
		if at != s.gen {
			return o, failf("live: answer at generation %d, which is no frame boundary (preload %d, %d frames sent)", s.gen, g0, feed.sent)
		}
		if err := checkOracle(s.a, *hot[s.q].oracle, cur); err != nil {
			return o, err
		}
	}
	want := newTally()
	want.addTally(st.in.tally)
	for k := 0; k < feed.sent; k++ {
		f := k % len(st.frames)
		for _, r := range st.in.sums[f*cfg.liveFrame : f*cfg.liveFrame+st.sizes[f]] {
			want.add(r)
		}
	}
	if err := checkStudy(httpAsker(e, queryClient, st.http.url), want, "live study"); err != nil {
		return o, err
	}
	if err := checkAttribution(st.study, want, "live study"); err != nil {
		return o, err
	}
	checked := len(samples)
	samples, seen = nil, nil // the heap reading is of the program's state
	o.heapMB = heapMB()
	recordCache(e, st.served)
	sortDurations(feed.lat)
	sortDurations(feed.late)
	o.note("live: %d frames of %d records sent at %.0f/s (%d late), ingest from due p50 %.3f ms p99 %.3f ms, generator lag p99 %.3f ms max %.3f ms; %d checked answers; %.0f queries/s, median over rounds",
		feed.sent, cfg.liveFrame, cfg.liveRate, feed.lateCount, ms(quantile(feed.lat, 0.5)), ms(quantile(feed.lat, 0.99)),
		ms(quantile(feed.late, 0.99)), ms(quantile(feed.late, 1)), checked, median(queryRates))
	return o, nil
}

// liveFeed is the open-loop feeder: frame k is due at start + k/rate and is
// sent then, or at once when the previous one finished late.
type liveFeed struct {
	sent      int
	lat       []time.Duration // ack time minus due time
	late      []time.Duration // send time minus due time
	rates     []float64       // records per second from send to ack
	lateCount int
	err       error
}

func (f *liveFeed) run(e *env, cfg config, c *http.Client, base string, frames [][]byte, sizes []int, stop <-chan struct{}) {
	interval := time.Duration(float64(time.Second) / cfg.liveRate)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		late := time.Since(due)
		if late > interval {
			f.lateCount++
		}
		i := k % len(frames)
		d, err := postIngest(e, 0, c, base, frames[i], sizes[i])
		if err != nil {
			f.err = fmt.Errorf("live feeder: %w", err)
			return
		}
		f.sent++
		f.lat = append(f.lat, time.Since(due))
		f.late = append(f.late, late)
		f.rates = append(f.rates, float64(sizes[i])/d.Seconds())
	}
}
