package main

// Flag-to-edge wiring: serving goes through the caching edge in both
// modes, -hot-pages/-compress tune it, conditional requests and gzip
// work, and a static refresh swaps the edge's snapshot without any
// response mixing two builds.

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strudel/internal/sitegen"
	"strudel/internal/workload"
)

func TestServeHandlerEdgeModes(t *testing.T) {
	dir := writeTestSite(t)
	for _, dynamic := range []bool{false, true} {
		m, err := loadManifest(filepath.Join(dir, "site.manifest"))
		if err != nil {
			t.Fatal(err)
		}
		h, refresh, err := serveHandler(m, serveOptions{
			dynamic:  dynamic,
			hotPages: 4,
			compress: true,
			logg:     discardLogger(),
		})
		if err != nil {
			t.Fatalf("dynamic=%v: %v", dynamic, err)
		}
		if refresh == nil {
			t.Fatalf("dynamic=%v: nil refresh func", dynamic)
		}
		srv := httptest.NewServer(h)

		resp, err := http.Get(srv.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != 200 || !strings.Contains(string(body), "Papers") {
			t.Errorf("dynamic=%v: / = %d %q", dynamic, resp.StatusCode, body)
		}
		if etag == "" {
			t.Fatalf("dynamic=%v: edge served no ETag", dynamic)
		}

		// Revalidation answers 304 with no body.
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/", nil)
		req.Header.Set("If-None-Match", etag)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 304 || len(b) != 0 {
			t.Errorf("dynamic=%v: revalidation = %d (%d bytes), want 304 empty",
				dynamic, resp.StatusCode, len(b))
		}

		// Gzip negotiation round-trips to the same bytes. The default
		// transport would decode transparently; ask explicitly so the
		// Content-Encoding header stays visible.
		req, _ = http.NewRequest(http.MethodGet, srv.URL+"/", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		wire, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		plain := wire
		if resp.Header.Get("Content-Encoding") == "gzip" {
			zr, err := gzip.NewReader(strings.NewReader(string(wire)))
			if err != nil {
				t.Fatal(err)
			}
			if plain, err = io.ReadAll(zr); err != nil {
				t.Fatal(err)
			}
		}
		if string(plain) != string(body) {
			t.Errorf("dynamic=%v: gzip round-trip changed bytes", dynamic)
		}
		srv.Close()
	}
}

// TestServeLoadConformanceOneBuildPerResponse: static serving under
// concurrent refresh never mixes builds. A refresher keeps editing a
// source and swapping in the rebuilt generation while load clients
// issue GETs and conditional GETs; every 200 must carry an (ETag,
// bytes) pair of one recorded build's page, and every 304 must answer
// a tag some recorded build served. The recorded builds are
// from-scratch builds of each source version, which the maintained
// site must equal byte for byte, ETags included. Under -hot-pages the
// policy loop re-ranks every 10 s, longer than the test runs, so pages
// stay cold here; server.TestEdgeSetSourceSwapsAtomically covers
// resident pages swapped under concurrent reads.
func TestServeLoadConformanceOneBuildPerResponse(t *testing.T) {
	for _, hot := range []int{0, 4} {
		t.Run(fmt.Sprintf("hot-pages=%d", hot), func(t *testing.T) {
			dir := writeTestSite(t)
			bibPath := filepath.Join(dir, "refs.bib")
			orig, err := os.ReadFile(bibPath)
			if err != nil {
				t.Fatal(err)
			}
			versions := make([]string, 6)
			var builds []*sitegen.Site
			for k := range versions {
				versions[k] = strings.Replace(string(orig), "{Alpha}", fmt.Sprintf("{Alpha %d}", k), 1)
				if err := os.WriteFile(bibPath, []byte(versions[k]), 0o644); err != nil {
					t.Fatal(err)
				}
				m, err := loadManifest(filepath.Join(dir, "site.manifest"))
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.builder.Build()
				if err != nil {
					t.Fatal(err)
				}
				builds = append(builds, res.Site)
			}
			// Serving starts from the last version written.
			m, err := loadManifest(filepath.Join(dir, "site.manifest"))
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			defer close(stop)
			h, refresh, err := serveHandler(m, serveOptions{
				hotPages: hot, stop: stop, logg: discardLogger(),
			})
			if err != nil {
				t.Fatal(err)
			}

			validate := func(path string, status int, etag string, body []byte) error {
				key := strings.TrimPrefix(path, "/")
				for _, site := range builds {
					p := site.Pages[key]
					if p == nil || p.ETag != etag {
						continue
					}
					if status == http.StatusNotModified || (status == http.StatusOK && p.HTML == string(body)) {
						return nil
					}
				}
				return fmt.Errorf("%s: status %d, ETag %s, %d bytes: no recorded build served this",
					path, status, etag, len(body))
			}

			loadDone := make(chan struct{})
			refreshed := make(chan int, 1)
			go func() {
				n := 0
				defer func() { refreshed <- n }()
				for {
					select {
					case <-loadDone:
						return
					default:
					}
					if err := os.WriteFile(bibPath, []byte(versions[n%len(versions)]), 0o644); err != nil {
						t.Error(err)
						return
					}
					if err := refresh(); err != nil {
						t.Error(err)
						return
					}
					n++
				}
			}()
			rep, err := workload.RunLoad(h, []string{
				"index.html", "PaperPage_p1.html", "PaperPage_p2.html",
			}, workload.LoadOptions{Clients: 4, Requests: 500, Conditional: 0.5, Validate: validate})
			close(loadDone)
			n := <-refreshed
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors > 0 {
				t.Fatalf("%d of %d responses mixed builds; first: %s", rep.Errors, rep.Requests, rep.FirstError)
			}
			if n < 2 || rep.Status[http.StatusOK] == 0 || rep.NotModified == 0 {
				t.Errorf("weak overlap: %d refreshes, status %v", n, rep.Status)
			}
		})
	}
}
