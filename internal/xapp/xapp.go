// Package xapp provides external-application (xApp) building blocks: a
// REST client for the controllers' northbound interfaces and ready-made
// xApp logics — the traffic-control xApp of §6.1.1 (watch sojourn times
// via the broker, apply the queue/filter/pacer remedy via REST) and the
// slicing xApp of §6.1.2.
//
// xApps talk only to controller northbounds (broker channels and HTTP),
// staying functionally isolated from the controller, as the paper's
// specializations mandate (Tables 3 and 4). SLAXApp, the A1 loop, is
// the exception: an iApp in the controller's process that calls the
// slicing and TC controllers directly.
package xapp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// RESTClient wraps a controller's HTTP northbound.
type RESTClient struct {
	Base string // e.g. "http://127.0.0.1:8080"
	HTTP *http.Client
}

// NewRESTClient returns a client for the given base URL.
func NewRESTClient(base string) *RESTClient {
	return &RESTClient{Base: base, HTTP: &http.Client{Timeout: 10 * time.Second}}
}

// PostJSON sends body as JSON and decodes the response into out (unless
// out is nil or the response has no content).
func (c *RESTClient) PostJSON(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Post(c.Base+path, "application/json", bytes.NewReader(buf))
	return decodeResponse("POST "+path, resp, err, out)
}

// GetJSON fetches path and decodes the JSON response into out.
func (c *RESTClient) GetJSON(path string, out any) error {
	resp, err := c.HTTP.Get(c.Base + path)
	return decodeResponse("GET "+path, resp, err, out)
}

// decodeResponse turns a failed request or a status of 300 or more
// into an error and otherwise decodes the body into out, unless out is
// nil or the response has no content.
func decodeResponse(req string, resp *http.Response, err error, out any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("xapp: %s: %s: %s", req, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
