package server

import (
	"fmt"
	"html"
	"net/http"
	"sort"

	"strudel/internal/graph"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
)

// QueryHandlerFrom serves ad-hoc StruQL queries against a graph — the
// "querying a STRUDEL-generated site" use the paper suggests for
// regular path expressions (Sec. 5.2), and the simplest form of a page
// that depends on user input and therefore cannot be materialized
// statically (Sec. 1). GET /?q=<query> evaluates the query's where
// and collect clauses against the graph and renders each output
// collection as an HTML list. Construction clauses are rejected: an
// ad-hoc query must not mutate the site.
//
// maxBindings bounds evaluation (0 means 100000) so a stray
// active-domain query cannot take the server down. Each request
// evaluates against whatever graph the getter currently returns, so
// ad-hoc queries follow a background refresher's atomic swaps and
// always see the latest committed graph.
func QueryHandlerFrom(get func() *graph.Graph, reg *struql.Registry, maxBindings int) http.Handler {
	if maxBindings == 0 {
		maxBindings = 100_000
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g := get()
		src := r.URL.Query().Get("q")
		if src == "" {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			fmt.Fprint(w, `<html><body><form method="GET">
<p>StruQL query (where/collect):</p>
<textarea name="q" rows="6" cols="70"></textarea>
<p><input type="submit" value="Run"></p></form></body></html>`)
			return
		}
		q, err := struql.Parse(src)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := readOnly(q.Root); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// A sampled request trace gets the evaluation as a child span —
		// ad-hoc queries are the requests whose cost varies the most.
		sp, _, finish := telemetry.StartSpan(r.Context(), "struql eval")
		res, err := struql.Eval(q, g, &struql.Options{Registry: reg, MaxBindings: maxBindings})
		if sp != nil {
			if err == nil {
				sp.SetAttr("bindings", res.Bindings)
			} else {
				sp.SetAttr("error", err.Error())
			}
		}
		finish()
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<html><body><h1>Query results</h1><pre>%s</pre>\n", html.EscapeString(src))
		colls := res.Output.Collections()
		sort.Strings(colls)
		if len(colls) == 0 {
			fmt.Fprint(w, "<p>(no collect clauses — nothing to show)</p>")
		}
		for _, c := range colls {
			fmt.Fprintf(w, "<h2>%s</h2><ul>\n", html.EscapeString(c))
			for _, v := range res.Output.Collection(c) {
				fmt.Fprintf(w, "<li>%s</li>\n", html.EscapeString(g.DisplayValue(v)))
			}
			fmt.Fprint(w, "</ul>\n")
		}
		fmt.Fprint(w, "</body></html>")
	})
}

// readOnly rejects queries with construction clauses beyond collect.
func readOnly(b *struql.Block) error {
	if len(b.Creates) > 0 || len(b.Links) > 0 {
		return fmt.Errorf("server: ad-hoc queries may only use where and collect clauses")
	}
	for _, ch := range b.Children {
		if err := readOnly(ch); err != nil {
			return err
		}
	}
	return nil
}
