package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// conns is the number of keep-alive connections (and client goroutines)
// the benchmark drives the daemon with.
const conns = 2

// max429 bounds the retries of a request the daemon refuses with 429
// (mailbox full); a request still refused after that counts as failed.
const max429 = 8

// client talks to one daemon over at most conns keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// acct is one client goroutine's failure accounting: every operation it
// attempts, the ones that failed (transport error, non-2xx answer,
// exhausted 429 retries, or a fidelity mismatch found later), and the
// 429 answers it retried through.
type acct struct {
	attempted int
	failed    int
	retried   int // 429 answers, whether the retry then succeeded or not
	errs      []string
}

func (a *acct) fail(err error) {
	a.failed++
	a.note(err.Error())
}

// note keeps the first few failure messages, including failures counted
// elsewhere (fidelity mismatches).
func (a *acct) note(msg string) {
	if len(a.errs) < 5 {
		a.errs = append(a.errs, msg)
	}
}

func (a *acct) merge(b *acct) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.retried += b.retried
	for _, e := range b.errs {
		a.note(e)
	}
}

// call sends one request, retrying 429 with a short backoff, and decodes
// a 2xx JSON answer into out (when non-nil). It counts the operation as
// attempted, and as failed when it returns an error. The latency covers
// every retry.
func (c *client) call(a *acct, method, path, ctype string, body []byte, out any) (time.Duration, error) {
	a.attempted++
	start := time.Now()
	err := c.try(a, method, path, ctype, body, out)
	if err != nil {
		a.fail(err)
	}
	return time.Since(start), err
}

func (c *client) try(a *acct, method, path, ctype string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s %s: read body: %w", method, path, err)
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			a.retried++
			if attempt+1 >= max429 {
				return fmt.Errorf("%s %s: still 429 after %d attempts", method, path, max429)
			}
			time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
			continue
		case resp.StatusCode/100 != 2:
			return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("%s %s: decode answer: %w", method, path, err)
			}
		}
		return nil
	}
}

// get is a GET outside any accounting (health probes, metric scrapes).
func (c *client) get(path string, out any) error {
	var a acct
	return c.try(&a, http.MethodGet, path, "", nil, out)
}

// scrape reads the daemon's Prometheus exposition.
func (c *client) scrape() (promSample, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
