package testkit

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"copydetect/internal/dataset"
)

// Append is the body of POST /v1/datasets/{name}/observations.
type Append struct {
	Observations []dataset.Record `json:"observations,omitempty"`
	Truth        []dataset.Record `json:"truth,omitempty"`
}

// Do sends one request, with body encoded as JSON unless it is nil or
// already bytes and hdr added, and returns the response's status, headers
// and raw body.
func Do(client *http.Client, method, url string, body any, hdr http.Header) (int, http.Header, []byte, error) {
	var rd io.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// Client speaks the wire protocol for one dataset through one base URL,
// a daemon's or a gateway's: the protocol is the same, which is what the
// cluster suite holds it to.
type Client struct {
	T    testing.TB
	HTTP *http.Client
	Base string
	Name string
}

// URL is the dataset's URL with suffix appended.
func (c *Client) URL(suffix string) string {
	return c.Base + "/v1/datasets/" + c.Name + suffix
}

// Must sends one request on the dataset and fails the test unless it is
// answered with status want; it returns the body.
func (c *Client) Must(method, suffix string, body any, want int) []byte {
	c.T.Helper()
	status, _, raw, err := Do(c.HTTP, method, c.URL(suffix), body, nil)
	if err != nil || status != want {
		c.T.Fatalf("%s %s: status=%d err=%v body=%s", method, c.URL(suffix), status, err, raw)
	}
	return raw
}

// Published fetches the /copies, /truth and /stats views, keyed by
// endpoint, with the top-level keys named in masks dropped: what is left
// must be identical between two runs of the same appends. Every view
// must report itself converged.
func (c *Client) Published(masks ...string) map[string]map[string]any {
	c.T.Helper()
	views := map[string]map[string]any{}
	for _, ep := range []string{"/copies", "/truth", "/stats"} {
		raw := c.Must(http.MethodGet, ep, nil, http.StatusOK)
		out := map[string]any{}
		if err := json.Unmarshal(raw, &out); err != nil {
			c.T.Fatalf("GET %s: bad body %q: %v", ep, raw, err)
		}
		for _, m := range masks {
			delete(out, m)
		}
		if conv, _ := out["converged"].(bool); !conv {
			c.T.Fatalf("GET %s after quiesce not converged: %v", ep, out)
		}
		views[ep] = out
	}
	return views
}
