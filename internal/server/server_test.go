package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/match"
	"repro/internal/repository"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/workload"
)

// testBackend is a minimal server.Backend over one Repo: the second,
// independent implementation of the interface next to the public coma
// adapters, pinning that the server contract does not secretly depend
// on either.
type testBackend struct {
	*repository.Repo
	ctx *match.Context
	cfg core.Config
}

func (b *testBackend) PutSchema(s *schema.Schema) (bool, error) {
	prev, err := b.Repo.SwapSchema(s)
	return prev != nil, err
}

func (b *testBackend) DeleteSchema(name string) (bool, error) {
	prev, err := b.Repo.TakeSchema(name)
	return prev != nil, err
}

func newTestBackend(t *testing.T) *testBackend {
	t.Helper()
	repo, err := repository.Open(filepath.Join(t.TempDir(), "server.repo"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	return &testBackend{Repo: repo, ctx: match.NewContext(), cfg: core.DefaultConfig()}
}

// IndexStats reports no candidate index: the test backend always
// matches exhaustively.
func (b *testBackend) IndexStats() (server.IndexReadiness, bool) {
	return server.IndexReadiness{}, false
}

func (b *testBackend) Recovery() []server.RecoveryStatus { return nil }

// PageCache surfaces the backing Repo's buffer pool so /readyz tests
// can see paged-store state through the second implementation too.
func (b *testBackend) PageCache() (server.PageCacheStatus, bool) {
	st := b.Repo.PageCacheStats()
	return server.PageCacheStatus{
		Capacity: st.Capacity, Resident: st.Resident, Pinned: st.Pinned,
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
	}, true
}

// WarmStart reports no warm restore: the test backend opens cold.
func (b *testBackend) WarmStart() (server.WarmStartStatus, bool) {
	return server.WarmStartStatus{}, false
}

func (b *testBackend) MatchIncoming(ctx context.Context, incoming *schema.Schema, topK int, allowPartial, exhaustive bool) ([]server.Match, []server.ShardFailure, error) {
	stored := b.Schemas()
	candidates := stored[:0:0]
	for _, s := range stored {
		if s.Name != incoming.Name {
			candidates = append(candidates, s)
		}
	}
	opt := core.BatchOptions{TopK: topK}
	groups, _, _, err := core.MatchBatch(ctx, b.ctx, incoming, [][]*schema.Schema{candidates}, nil, b.cfg, opt)
	if err != nil {
		return nil, nil, err
	}
	var out []server.Match
	for i, res := range groups[0] {
		if res != nil {
			out = append(out, server.Match{Schema: candidates[i], Result: res})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Result.SchemaSim != out[j].Result.SchemaSim {
			return out[i].Result.SchemaSim > out[j].Result.SchemaSim
		}
		return out[i].Schema.Name < out[j].Schema.Name
	})
	return out, nil, nil
}

// newTestServer starts an httptest server over a fresh backend.
func newTestServer(t *testing.T) (*httptest.Server, *testBackend) {
	t.Helper()
	b := newTestBackend(t)
	ts := httptest.NewServer(server.New(server.Config{Backend: b, Workers: 2, Shards: 1}))
	t.Cleanup(ts.Close)
	return ts, b
}

// doJSON performs a request with an optional JSON body and decodes the
// JSON response.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// xsdOf serializes a workload schema for inline transport.
func xsdOf(t *testing.T, s *schema.Schema) string {
	t.Helper()
	var buf bytes.Buffer
	if err := export.SchemaXSD(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestServerHealthz(t *testing.T) {
	ts, b := newTestServer(t)
	var h server.Health
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h.Status != "ok" || h.Schemas != 0 || h.Shards != 1 {
		t.Errorf("healthz = %+v", h)
	}
	if _, err := b.PutSchema(workload.Candidates(1)[0]); err != nil {
		t.Fatal(err)
	}
	doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h)
	if h.Schemas != 1 {
		t.Errorf("healthz after put: %d schemas", h.Schemas)
	}
}

func TestServerSchemaLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	src := xsdOf(t, workload.Schemas()[0])

	// Create.
	var info server.SchemaInfo
	code := doJSON(t, http.MethodPut, ts.URL+"/schemas/PO-A",
		server.SchemaPayload{Format: "xsd", Source: src}, &info)
	if code != http.StatusCreated {
		t.Fatalf("PUT new schema: HTTP %d", code)
	}
	if info.Name != "PO-A" || info.Paths == 0 {
		t.Errorf("PUT response = %+v", info)
	}
	// Replace: same name answers 200, not 201.
	if code := doJSON(t, http.MethodPut, ts.URL+"/schemas/PO-A",
		server.SchemaPayload{Format: "xsd", Source: src}, &info); code != http.StatusOK {
		t.Errorf("PUT replace: HTTP %d", code)
	}

	// List.
	var list server.SchemasResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/schemas", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /schemas: HTTP %d", code)
	}
	if len(list.Schemas) != 1 || list.Schemas[0].Name != "PO-A" || list.Schemas[0].Paths != info.Paths {
		t.Errorf("schema list = %+v", list)
	}

	// Detail.
	var detail server.SchemaDetail
	if code := doJSON(t, http.MethodGet, ts.URL+"/schemas/PO-A", nil, &detail); code != http.StatusOK {
		t.Fatalf("GET /schemas/PO-A: HTTP %d", code)
	}
	if len(detail.Paths) != info.Paths {
		t.Errorf("detail has %d paths, info %d", len(detail.Paths), info.Paths)
	}

	// Delete, then 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/schemas/PO-A", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	var apiErr server.ErrorResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/schemas/PO-A", nil, &apiErr); code != http.StatusNotFound {
		t.Errorf("GET deleted schema: HTTP %d", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/schemas/PO-A", nil, &apiErr); code != http.StatusNotFound {
		t.Errorf("DELETE missing schema: HTTP %d", code)
	}
}

func TestServerMatchInlineAndStored(t *testing.T) {
	ts, b := newTestServer(t)
	all := workload.Candidates(5)
	incoming, stored := all[0], all[1:]
	for _, s := range stored {
		if _, err := b.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}

	var resp server.MatchResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/match", server.MatchRequest{
		Schema: server.SchemaPayload{Name: incoming.Name, Format: "xsd", Source: xsdOf(t, incoming)},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("POST /match: HTTP %d", code)
	}
	if resp.Incoming != incoming.Name || len(resp.Candidates) != len(stored) {
		t.Fatalf("match response: incoming %q, %d candidates", resp.Incoming, len(resp.Candidates))
	}
	for i := 1; i < len(resp.Candidates); i++ {
		if resp.Candidates[i].SchemaSim > resp.Candidates[i-1].SchemaSim {
			t.Errorf("candidates not ranked: %v after %v",
				resp.Candidates[i].SchemaSim, resp.Candidates[i-1].SchemaSim)
		}
	}
	for _, c := range resp.Candidates {
		if len(c.Correspondences) == 0 {
			t.Errorf("candidate %s without correspondences", c.Schema)
		}
	}

	// TopK cuts the candidate list.
	var short server.MatchResponse
	doJSON(t, http.MethodPost, ts.URL+"/match", server.MatchRequest{
		Schema: server.SchemaPayload{Name: incoming.Name, Format: "xsd", Source: xsdOf(t, incoming)},
		TopK:   2,
	}, &short)
	if len(short.Candidates) != 2 {
		t.Fatalf("TopK 2: %d candidates", len(short.Candidates))
	}
	for i, c := range short.Candidates {
		if c.Schema != resp.Candidates[i].Schema || c.SchemaSim != resp.Candidates[i].SchemaSim {
			t.Errorf("shortlist[%d] = %+v, want %+v", i, c, resp.Candidates[i])
		}
	}

	// A stored schema matched by name skips itself.
	var byName server.MatchResponse
	code = doJSON(t, http.MethodPost, ts.URL+"/match", server.MatchRequest{
		Schema: server.SchemaPayload{Name: stored[0].Name},
	}, &byName)
	if code != http.StatusOK {
		t.Fatalf("POST /match by name: HTTP %d", code)
	}
	if len(byName.Candidates) != len(stored)-1 {
		t.Errorf("match by name: %d candidates, want %d", len(byName.Candidates), len(stored)-1)
	}
	for _, c := range byName.Candidates {
		if c.Schema == stored[0].Name {
			t.Errorf("stored schema matched against itself")
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	post := func(body string) (int, server.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/match", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var apiErr server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&apiErr)
		return resp.StatusCode, apiErr
	}

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"trailing garbage", `{"schema":{"name":"X"}} trailing`, http.StatusBadRequest},
		{"no schema", `{"schema":{}}`, http.StatusBadRequest},
		{"negative topK", `{"schema":{"name":"X"},"topK":-1}`, http.StatusBadRequest},
		{"unknown stored schema", `{"schema":{"name":"NoSuch"}}`, http.StatusNotFound},
		{"inline without format", `{"schema":{"name":"X","source":"CREATE TABLE T (a INT);"}}`, http.StatusUnprocessableEntity},
		{"unknown format", `{"schema":{"name":"X","format":"avro","source":"x"}}`, http.StatusUnprocessableEntity},
		{"unparsable source", `{"schema":{"name":"X","format":"xsd","source":"not xml"}}`, http.StatusUnprocessableEntity},
		{"empty schema", `{"schema":{"name":"X","format":"sql","source":"-- no tables"}}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		code, apiErr := post(tc.body)
		if code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, code, tc.want)
		}
		if code != http.StatusOK && apiErr.Error == "" {
			t.Errorf("%s: error body missing", tc.name)
		}
	}

	// PUT with a contradicting payload name.
	var apiErr server.ErrorResponse
	if code := doJSON(t, http.MethodPut, ts.URL+"/schemas/A",
		server.SchemaPayload{Name: "B", Format: "sql", Source: "CREATE TABLE B.T (a INT);"}, &apiErr); code != http.StatusBadRequest {
		t.Errorf("PUT contradicting name: HTTP %d (%s)", code, apiErr.Error)
	}
	// PUT without inline source.
	if code := doJSON(t, http.MethodPut, ts.URL+"/schemas/A",
		server.SchemaPayload{}, &apiErr); code != http.StatusBadRequest {
		t.Errorf("PUT without source: HTTP %d", code)
	}
	// Unrouted method.
	resp, err := http.Post(ts.URL+"/schemas", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /schemas: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestServerConcurrentPutSameName: racing imports of one name agree on
// exactly one creator — the atomic swap contract of Backend.PutSchema.
func TestServerConcurrentPutSameName(t *testing.T) {
	ts, _ := newTestServer(t)
	src := xsdOf(t, workload.Schemas()[0])
	const n = 8
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i] = doJSON(t, http.MethodPut, ts.URL+"/schemas/Same",
				server.SchemaPayload{Format: "xsd", Source: src}, new(server.SchemaInfo))
		}(i)
	}
	wg.Wait()
	created := 0
	for i, code := range statuses {
		switch code {
		case http.StatusCreated:
			created++
		case http.StatusOK:
		default:
			t.Errorf("put %d: HTTP %d", i, code)
		}
	}
	if created != 1 {
		t.Errorf("%d imports claim to have created the schema, want exactly 1", created)
	}
}

// TestServerChurn floods a live server with concurrent schema imports
// and match requests — the satellite -race test at the HTTP layer.
func TestServerChurn(t *testing.T) {
	ts, b := newTestServer(t)
	seed := workload.Candidates(4)
	for _, s := range seed {
		if _, err := b.PutSchema(s); err != nil {
			t.Fatal(err)
		}
	}
	writers, matchers, rounds := 3, 3, 6
	sources := make([]string, writers*rounds)
	extra := workload.Candidates(writers * rounds)
	for i := range sources {
		extra[i].Name = fmt.Sprintf("churn-%03d", i)
		sources[i] = xsdOf(t, extra[i])
	}
	incoming := xsdOf(t, workload.Schemas()[1])

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := w*rounds + r
				var info server.SchemaInfo
				code := doJSON(t, http.MethodPut,
					fmt.Sprintf("%s/schemas/churn-%03d", ts.URL, i),
					server.SchemaPayload{Format: "xsd", Source: sources[i]}, &info)
				if code != http.StatusCreated && code != http.StatusOK {
					t.Errorf("churn PUT %d: HTTP %d", i, code)
					return
				}
			}
		}(w)
	}
	for m := 0; m < matchers; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var resp server.MatchResponse
				code := doJSON(t, http.MethodPost, ts.URL+"/match", server.MatchRequest{
					Schema: server.SchemaPayload{Name: "incoming", Format: "xsd", Source: incoming},
					TopK:   3,
				}, &resp)
				if code != http.StatusOK {
					t.Errorf("churn match: HTTP %d", code)
					return
				}
				if len(resp.Candidates) == 0 {
					t.Error("churn match: no candidates")
					return
				}
			}
		}()
	}
	wg.Wait()
	var h server.Health
	doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h)
	if want := len(seed) + writers*rounds; h.Schemas != want {
		t.Errorf("schemas after churn = %d, want %d", h.Schemas, want)
	}
}

// TestServerBodyTooLarge: an upload beyond the configured body cap is
// answered with a uniform JSON 413 on both write endpoints instead of
// being buffered onto the heap (satellite: request body bound).
func TestServerBodyTooLarge(t *testing.T) {
	b := newTestBackend(t)
	ts := httptest.NewServer(server.New(server.Config{
		Backend: b, Workers: 2, MaxBodyBytes: 2 << 10,
	}))
	t.Cleanup(ts.Close)

	huge, err := json.Marshal(server.SchemaPayload{
		Format: "sql",
		Source: "CREATE TABLE T (a INT); -- " + strings.Repeat("x", 8<<10),
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(method, url string, body []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s: HTTP %d, want 413", method, url, resp.StatusCode)
		}
		var apiErr server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Errorf("%s %s: non-JSON 413 body: %v", method, url, err)
		} else if apiErr.Error == "" {
			t.Errorf("%s %s: empty error message", method, url)
		}
	}
	check(http.MethodPut, ts.URL+"/schemas/Big", huge)

	match, err := json.Marshal(server.MatchRequest{Schema: server.SchemaPayload{
		Format: "sql",
		Source: "CREATE TABLE T (a INT); -- " + strings.Repeat("y", 8<<10),
	}})
	if err != nil {
		t.Fatal(err)
	}
	check(http.MethodPost, ts.URL+"/match", match)

	// A body under the cap still goes through the normal pipeline.
	var info server.SchemaInfo
	if code := doJSON(t, http.MethodPut, ts.URL+"/schemas/Small",
		server.SchemaPayload{Format: "sql", Source: "CREATE TABLE PO.T (a INT);"}, &info); code != http.StatusCreated {
		t.Errorf("small PUT under the cap: HTTP %d, want 201", code)
	}
}
