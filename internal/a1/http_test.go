package a1

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flexric/internal/rest"
)

func newTestServer(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	st := NewStore()
	mux := http.NewServeMux()
	rest.Handle(mux, "a1.http", Routes(st))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return st, srv
}

const policyBody = `{"id":"p1","typeId":"slice_sla_v1","agent":0,"windowMs":200,"targets":[{"sliceId":1,"minThroughputMbps":40}]}`

func TestHTTPPolicyLifecycle(t *testing.T) {
	st, srv := newTestServer(t)
	c := srv.Client()

	// Create.
	resp, err := c.Post(srv.URL+"/a1/policies", "application/json", strings.NewReader(policyBody))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	var created State
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.Policy.Version != 1 || created.Status != StatusNotApplied {
		t.Fatalf("created %+v", created)
	}

	// Duplicate create → 409.
	resp, _ = c.Post(srv.URL+"/a1/policies", "application/json", strings.NewReader(policyBody))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// List.
	resp, _ = c.Get(srv.URL + "/a1/policies")
	var list []State
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Policy.ID != "p1" {
		t.Fatalf("list %+v", list)
	}

	// Get one.
	resp, _ = c.Get(srv.URL + "/a1/policies/p1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = c.Get(srv.URL + "/a1/policies/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get missing status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Update via PUT.
	up := strings.Replace(policyBody, `"minThroughputMbps":40`, `"minThroughputMbps":50`, 1)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/a1/policies/p1", strings.NewReader(up))
	req.Header.Set("Content-Type", "application/json")
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var updated State
	if err := json.NewDecoder(resp.Body).Decode(&updated); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if updated.Policy.Version != 2 || updated.Policy.Targets[0].MinThroughputMbps != 50 {
		t.Fatalf("updated %+v", updated)
	}

	// Mismatched body ID → 400.
	bad := strings.Replace(policyBody, `"id":"p1"`, `"id":"zz"`, 1)
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/a1/policies/p1", strings.NewReader(bad))
	req.Header.Set("Content-Type", "application/json")
	resp, _ = c.Do(req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched id status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Status summary reflects a transition.
	st.SetStatus("p1", StatusViolated, "slice 1 below floor")
	resp, _ = c.Get(srv.URL + "/a1/status")
	var sum StatusSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.Policies != 1 || sum.Violated != 1 {
		t.Fatalf("summary %+v", sum)
	}

	// Delete.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/a1/policies/p1", nil)
	resp, _ = c.Do(req)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/a1/policies/p1", nil)
	resp, _ = c.Do(req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete missing status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPMethodAndContentEnforcement(t *testing.T) {
	_, srv := newTestServer(t)
	c := srv.Client()

	// Wrong method → 405 + Allow.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/a1/policies", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, HEAD, POST" {
		t.Fatalf("Allow = %q", allow)
	}
	resp.Body.Close()

	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/a1/status", nil)
	resp, _ = c.Do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Fatalf("status route: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp.Body.Close()

	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/a1/policies/p1", strings.NewReader(policyBody))
	req.Header.Set("Content-Type", "application/json")
	resp, _ = c.Do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "DELETE, GET, HEAD, PUT" {
		t.Fatalf("policy route: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
	resp.Body.Close()

	// Wrong content type → 415.
	resp, _ = c.Post(srv.URL+"/a1/policies", "text/plain", strings.NewReader(policyBody))
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain create status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = c.Post(srv.URL+"/a1/policies", "", strings.NewReader(policyBody))
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("empty content-type status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Charset parameter is fine.
	resp, _ = c.Post(srv.URL+"/a1/policies", "application/json; charset=utf-8", strings.NewReader(policyBody))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("charset create status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Validation failure → 400 with the issue list.
	badPolicy := `{"id":"bad","typeId":"slice_sla_v1","agent":0,"windowMs":1,"targets":[]}`
	resp, _ = c.Post(srv.URL+"/a1/policies", "application/json", strings.NewReader(badPolicy))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid policy status %d", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(eb.Error, "windowMs") || !strings.Contains(eb.Error, "targets") {
		t.Fatalf("error body %q misses issues", eb.Error)
	}

	// Unknown path under /a1/ → 404.
	resp, _ = c.Get(srv.URL + "/a1/bogus")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPTypes(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := srv.Client().Get(srv.URL + "/a1/types")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []TypeSchema
	if err := json.NewDecoder(resp.Body).Decode(&types); err != nil {
		t.Fatal(err)
	}
	if len(types) != 1 || types[0].TypeID != TypeSliceSLA {
		t.Fatalf("types %+v", types)
	}
	// The embedded schema must itself be valid JSON.
	var schema map[string]any
	if err := json.Unmarshal(types[0].Schema, &schema); err != nil {
		t.Fatalf("schema not valid JSON: %v", err)
	}
}

// A body over rest.MaxBody is refused with 413 on create and update,
// before the decoder sees it; one just under the bound is decoded.
func TestHTTPBodyBound(t *testing.T) {
	st, srv := newTestServer(t)
	c := srv.Client()
	// Whitespace after the object is valid JSON, so only the size can
	// refuse it.
	pad := func(n int) string { return policyBody + strings.Repeat(" ", n-len(policyBody)) }
	for _, tc := range []struct {
		method, path string
	}{{http.MethodPost, "/a1/policies"}, {http.MethodPut, "/a1/policies/p1"}} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(pad(rest.MaxBody+1)))
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s with a %d-byte body: status %d, want 413", tc.method, tc.path, rest.MaxBody+1, resp.StatusCode)
		}
	}
	if len(st.List()) != 0 {
		t.Fatal("an oversized body created a policy")
	}
	resp, err := c.Post(srv.URL+"/a1/policies", "application/json", strings.NewReader(pad(rest.MaxBody)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("a %d-byte body: status %d, want 201", rest.MaxBody, resp.StatusCode)
	}
}
