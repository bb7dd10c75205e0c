package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns is the generator's connection and issuing-goroutine count:
// the host has two CPUs, shared with the server under test.
const maxConns = 2

// outcome is what one operation returned.
type outcome struct {
	status int
	kind   string
	pfail  float64
	err    bool // transport or decode error
}

// sample is one operation as the open loop issued it. Times are offsets
// from the loop's epoch.
type sample struct {
	idx            int // index into the op stream
	due, send, end time.Duration
	lag            time.Duration // generator lateness: send minus max(due, worker free)
	out            outcome
}

func (s sample) latency() time.Duration { return s.end - s.due }

// openLoop issues ops first..first+n-1 on a fixed schedule: op first+i
// is due at start+i/rate regardless of earlier replies, so a stall delays
// later operations and their latency, measured from the due time,
// includes the wait. workers goroutines share the schedule.
func openLoop(epoch, start time.Time, rate float64, first, n, workers int, do func(i int) outcome) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	interval := float64(time.Second) / rate
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setTimerSlack()
			free := time.Since(epoch)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval)).Sub(epoch)
				if d := due - time.Since(epoch); d > 0 {
					preciseSleep(d)
				}
				send := time.Since(epoch)
				o := do(first + i)
				end := time.Since(epoch)
				out[i] = sample{idx: first + i, due: due, send: send, end: end, lag: send - max(due, free), out: o}
				free = end
			}
		}()
	}
	wg.Wait()
	return out
}

// The runtime's timers wake sub-millisecond sleeps about a millisecond
// late on Linux hosts without fine netpoll timeouts, which would put the
// generator's own lateness into every latency. The issuing goroutines
// therefore hold their OS thread, shrink its timer slack, and sleep with
// nanosleep, which wakes within tens of microseconds.

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

func setTimerSlack() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort: 1 µs
}

func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// client is the generator's HTTP client: keep-alive, at most maxConns
// connections, no proxy.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// wireAnswer is the part of a /predict answer the oracle checks; a
// /models publish record decodes to its zero value.
type wireAnswer struct {
	Kind  string  `json:"kind"`
	Pfail float64 `json:"pfail"`
}

func (c *client) do(method, path string, body []byte) outcome {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return outcome{err: true}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{err: true}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{status: resp.StatusCode, err: true}
	}
	o := outcome{status: resp.StatusCode}
	if resp.StatusCode/100 == 2 {
		var a wireAnswer
		if err := json.Unmarshal(data, &a); err != nil {
			o.err = true
			return o
		}
		o.kind, o.pfail = a.Kind, a.Pfail
	}
	return o
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// classify maps an outcome to its failure cause, before the oracle runs.
func classify(o outcome, write bool) cause {
	switch {
	case o.err && o.status == 0:
		return causeTransport
	case o.status == http.StatusServiceUnavailable:
		return causeShed
	case o.status/100 != 2:
		return causeStatus
	case o.err:
		return causeTransport
	case !write && o.kind != "exact":
		return causeDegraded
	}
	return causeNone
}
