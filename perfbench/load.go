package main

import (
	"bytes"
	"compress/gzip"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"strudel/internal/server"
	"strudel/internal/sitegen"
)

// recorder is the ResponseWriter of in-process requests, reused across
// one client's requests.
type recorder struct {
	header http.Header
	status int
	body   []byte
	// lane and parent, in traced runs, are where the edge timer
	// records the Edge.ServeHTTP span of a sampled request.
	lane   *lane
	parent int
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.body = append(r.body, b...)
	return len(b), nil
}

func (r *recorder) reset() {
	clear(r.header)
	r.status = 0
	r.body = r.body[:0]
}

// unwrapRecorder finds the recorder under the middleware's response
// writers.
func unwrapRecorder(w http.ResponseWriter) *recorder {
	for {
		switch v := w.(type) {
		case *recorder:
			return v
		case interface{ Unwrap() http.ResponseWriter }:
			w = v.Unwrap()
		default:
			return nil
		}
	}
}

// timedEdge wraps the edge in traced runs: a sampled request gets an
// "edge.ServeHTTP" span inside its "request" span, so the chain's own
// time is the request span's self time. A request the edge answered
// by rendering (its cold counter moved) is tagged "cold".
func timedEdge(edge *server.Edge) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := unwrapRecorder(w)
		if rec == nil || rec.parent < 0 {
			edge.ServeHTTP(w, r)
			return
		}
		cold := edge.Stats().Cold
		id := rec.lane.begin("edge.ServeHTTP", rec.parent)
		edge.ServeHTTP(w, r)
		rec.lane.end(id)
		if edge.Stats().Cold != cold {
			rec.lane.tag(id, "cold")
		}
	})
}

// client is one simulated user agent: an ETag cache, a conditional
// request habit and gzip support, issuing requests in-process.
type client struct {
	h     http.Handler
	rec   recorder
	reqs  map[string]*http.Request
	etags map[string]string
	cond  float64 // probability of revalidating a cached page
	gz    bool
	rng   *rand.Rand

	lane  *lane
	every int // in traced runs, one request in every is given spans
	n     int

	lat   sample // µs
	tally tally

	// memo maps an ETag to the hash of a gzip body already checked
	// against it, so hot gzip bytes are decoded once per client.
	memo  map[string]uint64
	hseed maphash.Seed

	// Set by get for the response just received.
	inm     string
	decoded []byte
}

func newClient(h http.Handler, seed int64, cond float64, gz bool) *client {
	return &client{
		h:     h,
		rec:   recorder{header: http.Header{}, parent: -1},
		reqs:  map[string]*http.Request{},
		etags: map[string]string{},
		cond:  cond,
		gz:    gz,
		rng:   rand.New(rand.NewSource(seed)),
		every: 1,
		memo:  map[string]uint64{},
		hseed: maphash.MakeSeed(),
	}
}

// get sends one GET and returns how long the handler chain took and
// when it returned. Requests are built once per path and reused:
// building one is the HTTP server's work, not the handler chain's.
func (c *client) get(path string) (time.Duration, time.Time) {
	req := c.reqs[path]
	if req == nil {
		req = httptest.NewRequest(http.MethodGet, path, nil)
		if c.gz {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		c.reqs[path] = req
	}
	c.inm = ""
	if tag, ok := c.etags[path]; ok && c.rng.Float64() < c.cond {
		c.inm = tag
		req.Header.Set("If-None-Match", tag)
	} else {
		req.Header.Del("If-None-Match")
	}
	c.rec.reset()
	c.rec.lane, c.rec.parent = c.lane, -1
	if c.lane != nil && c.n%c.every == 0 {
		c.rec.parent = c.lane.begin("request", -1)
	}
	c.n++
	t0 := time.Now()
	c.h.ServeHTTP(&c.rec, req)
	done := time.Now()
	c.lane.end(c.rec.parent)
	switch c.rec.status {
	case http.StatusOK:
		if tag := c.rec.header.Get("ETag"); tag != "" {
			c.etags[path] = tag
		}
	case http.StatusNotFound:
		delete(c.etags, path)
	}
	c.decoded = nil
	return done.Sub(t0), done
}

// body returns the decoded body of the last response.
func (c *client) body() ([]byte, error) {
	if c.decoded != nil {
		return c.decoded, nil
	}
	if c.rec.header.Get("Content-Encoding") != "gzip" {
		c.decoded = c.rec.body
		return c.decoded, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(c.rec.body))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	c.decoded, err = io.ReadAll(zr)
	return c.decoded, err
}

// bodyIs reports whether the last response's decoded body is want.
func (c *client) bodyIs(etag, want string) bool {
	if c.rec.header.Get("Content-Encoding") != "gzip" {
		return string(c.rec.body) == want
	}
	h := maphash.Bytes(c.hseed, c.rec.body)
	if v, ok := c.memo[etag]; ok && v == h {
		return true
	}
	b, err := c.body()
	if err != nil || string(b) != want {
		return false
	}
	c.memo[etag] = h
	return true
}

// hrefs extracts the href targets of a page body, in page order.
func hrefs(body string) []string {
	var out []string
	for {
		i := strings.Index(body, `href="`)
		if i < 0 {
			return out
		}
		body = body[i+len(`href="`):]
		j := strings.IndexByte(body, '"')
		if j < 0 {
			return out
		}
		out = append(out, body[:j])
		body = body[j:]
	}
}

// rankPages orders a static site's request paths by link distance from
// the index page (breadth first, page order within a page), then
// every unreachable page by name. Zipf rank 0 is the index: readers
// enter at the top of the site and the deep leaves form the long tail.
func rankPages(site *sitegen.Site) []string {
	seen := map[string]bool{"index.html": true}
	queue := []string{"index.html"}
	for i := 0; i < len(queue); i++ {
		pg := site.Pages[queue[i]]
		if pg == nil {
			continue
		}
		for _, h := range hrefs(pg.HTML) {
			if _, ok := site.Pages[h]; ok && !seen[h] {
				seen[h] = true
				queue = append(queue, h)
			}
		}
	}
	var rest []string
	for p := range site.Pages {
		if !seen[p] {
			rest = append(rest, p)
		}
	}
	sort.Strings(rest)
	out := make([]string, 0, len(site.Pages))
	for _, p := range append(queue, rest...) {
		if p == "index.html" {
			out = append(out, "/")
			continue
		}
		out = append(out, "/"+p)
	}
	return out
}
