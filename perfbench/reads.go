package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/server"
)

// readMixSize is the number of distinct requests in the read mix; one
// pass of the reader sends each once, in order.
const readMixSize = 256

// topN is the top-k size the mix asks for: cmd/loadgen's default
// -topk-n.
const topN = 10

var mixAlgos = []server.Algo{server.AlgoSRSR, server.AlgoPageRank, server.AlgoTrustRank}

// readReq is one request of the mix.
type readReq struct {
	req  *http.Request
	topN int // > 0 for a /v1/topk request
	algo server.Algo
}

// newReadMix builds the fixed, seeded request mix over n sources, spread
// over all algorithms. Its weights are those cmd/loadgen's default -mix
// gives the three read endpoints: topk=70, rank=20, compare=5 (its
// fourth, snapshot=5, is left out).
func newReadMix(seed uint64, n int) ([]readReq, error) {
	rng := gen.NewRNG(seed ^ 0x5eed4ead)
	mix := make([]readReq, 0, readMixSize)
	for i := 0; i < readMixSize; i++ {
		algo := mixAlgos[rng.Intn(len(mixAlgos))]
		var url string
		var n0 int
		switch x := rng.Intn(95); {
		case x < 70:
			n0 = topN
			url = fmt.Sprintf("/v1/topk?n=%d&algo=%s", topN, algo)
		case x < 90:
			url = fmt.Sprintf("/v1/rank/%d?algo=%s", rng.Intn(n), algo)
		default:
			url = fmt.Sprintf("/v1/compare?a=%d&b=%d&algo=%s", rng.Intn(n), rng.Intn(n), algo)
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		mix = append(mix, readReq{req: req, topN: n0, algo: algo})
	}
	return mix, nil
}

// sink is a reusable in-process http.ResponseWriter: reads go straight
// to the server's handler, so they time the program and not a network
// stack.
type sink struct {
	h    http.Header
	code int
	body []byte
}

func newSink() *sink { return &sink{h: http.Header{}, body: make([]byte, 0, 64<<10)} }

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.body = append(s.body, p...)
	return len(p), nil
}

func (s *sink) reset() {
	clear(s.h)
	s.code = 0
	s.body = s.body[:0]
}

// version returns the snapshot version a response body opens with.
func (s *sink) version() (uint64, bool) {
	const key = `"version":`
	head := s.body[:min(len(s.body), 64)]
	i := bytes.Index(head, []byte(key))
	if i < 0 {
		return 0, false
	}
	var v uint64
	digits := 0
	for _, c := range bytes.TrimLeft(head[i+len(key):], " ") {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + uint64(c-'0')
		digits++
	}
	return v, digits > 0
}

// reader sends the mix to a handler in a closed loop, one request at a
// time, timing each call, and checks what comes back.
type reader struct {
	h      http.Handler
	store  *server.Store
	mix    []readReq
	w      *sink
	lat    *latencyHist
	passes int64

	// verifyEvery: the bodies of every verifyEvery-th pass are checked
	// in full against the snapshot; every read's status and version are
	// checked always.
	verifyEvery int64
	// restartLat, once set, makes the next pass start a fresh latency
	// histogram, so that the warm-up's reads are not counted.
	restartLat  atomic.Bool
	lastVersion uint64
	expected    map[topKey]expectedTop

	reads, verified, failed int64
	firstErrs               []error
}

type topKey struct {
	version uint64
	algo    server.Algo
}

func newReader(h http.Handler, store *server.Store, mix []readReq, verifyEvery int64) *reader {
	return &reader{h: h, store: store, mix: mix, w: newSink(), lat: newLatencyHist(),
		verifyEvery: verifyEvery, expected: map[topKey]expectedTop{}}
}

// restart drops the latencies recorded so far, from the next pass on. It
// may be called from another goroutine than the reader's.
func (rd *reader) restart() { rd.restartLat.Store(true) }

// pass sends the whole mix once.
func (rd *reader) pass() {
	if rd.restartLat.Swap(false) {
		rd.lat = newLatencyHist()
	}
	verify := rd.verifyEvery > 0 && rd.passes%rd.verifyEvery == 0
	rd.passes++
	for i := range rd.mix {
		m := &rd.mix[i]
		before := rd.store.Current()
		rd.w.reset()
		t0 := nanotime()
		rd.h.ServeHTTP(rd.w, m.req)
		rd.lat.add(nanotime() - t0)
		rd.reads++
		if rd.w.code != http.StatusOK {
			rd.fail(checkf("%s returned %d: %s", m.req.URL, rd.w.code, rd.w.body))
			continue
		}
		v, ok := rd.w.version()
		if !ok {
			rd.fail(checkf("%s carries no version tag", m.req.URL))
			continue
		}
		if v < rd.lastVersion {
			rd.fail(checkf("%s served version %d after version %d", m.req.URL, v, rd.lastVersion))
		}
		rd.lastVersion = v
		if !verify || m.topN == 0 {
			continue
		}
		snap := before
		if snap.Version() != v {
			if snap = rd.store.Current(); snap.Version() != v {
				continue // two publishes during one read: no snapshot to check against
			}
		}
		rd.verified++
		if err := checkTopBody(rd.w.body, v, m.topN, rd.expectedFor(snap, m.algo)); err != nil {
			rd.fail(fmt.Errorf("%s: %w", m.req.URL, err))
		}
	}
}

func (rd *reader) fail(err error) {
	rd.failed++
	if len(rd.firstErrs) < 10 {
		rd.firstErrs = append(rd.firstErrs, err)
	}
}

func (rd *reader) expectedFor(snap *server.Snapshot, algo server.Algo) expectedTop {
	k := topKey{snap.Version(), algo}
	e, ok := rd.expected[k]
	if !ok {
		e = newExpectedTop(snap.Set(algo).ScoresView(), snap.LabelsView(), topN)
		for old := range rd.expected {
			if old.version < k.version {
				delete(rd.expected, old)
			}
		}
		rd.expected[k] = e
	}
	return e
}

// report adds the reader's operations and failures to r: every read is
// an operation, and so is every full body check.
func (rd *reader) report(r *run) {
	r.ops(rd.reads + rd.verified)
	r.failed += rd.failed
	for _, err := range rd.firstErrs {
		fmt.Fprintf(r.log, "perfbench: FAILED read: %v\n", err)
	}
}

// allocsPerRead sends one more pass, without body checks, and returns
// the allocations per read over it (all goroutines counted).
func (rd *reader) allocsPerRead() float64 {
	v := rd.verifyEvery
	rd.verifyEvery = 0
	m0 := readMem()
	rd.pass()
	m1 := readMem()
	rd.verifyEvery = v
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(rd.mix))
}

var epoch = time.Now()

// nanotime reads the monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }
