package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"iflex/internal/compact"
	"iflex/internal/engine"
)

// Client is a thin JSON client for the service, used by the benchmark's
// serve_sessions workload, the daemon smoke test, and the identity tests.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8080"
	HTTP *http.Client
}

// NewClient builds a client for a base URL using http.DefaultClient.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
}

// apiError is a non-2xx response, preserving the status code so callers
// can distinguish quota refusals (429) from drain refusals (503).
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string { return fmt.Sprintf("server: %d: %s", e.Status, e.Msg) }

// StatusCode returns err's HTTP status when it is a server refusal, or 0.
func StatusCode(err error) int {
	if ae, ok := err.(*apiError); ok {
		return ae.Status
	}
	return 0
}

// do issues one JSON request; out may be nil for empty responses.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &apiError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateSession opens a session.
func (c *Client) CreateSession(req CreateSessionRequest) (CreateSessionResponse, error) {
	var out CreateSessionResponse
	err := c.do("POST", "/v1/sessions", req, &out)
	return out, err
}

// Step answers the previous questions and runs one iteration.
func (c *Client) Step(id string, req StepRequest) (StepResponse, error) {
	var out StepResponse
	err := c.do("POST", "/v1/sessions/"+id+"/step", req, &out)
	return out, err
}

// Corpus commits a store mutation through a session and returns the
// delta plus the incremental re-evaluation's reuse counters.
func (c *Client) Corpus(id string, req CorpusRequest) (CorpusResponse, error) {
	var out CorpusResponse
	err := c.do("POST", "/v1/sessions/"+id+"/corpus", req, &out)
	return out, err
}

// Info fetches the session's lifecycle view.
func (c *Client) Info(id string) (SessionInfo, error) {
	var out SessionInfo
	err := c.do("GET", "/v1/sessions/"+id, nil, &out)
	return out, err
}

// Delete drops a session.
func (c *Client) Delete(id string) error {
	return c.do("DELETE", "/v1/sessions/"+id, nil, nil)
}

// Healthz returns the health status string ("ok" or "draining").
func (c *Client) Healthz() (string, error) {
	var out map[string]string
	if err := c.do("GET", "/healthz", nil, &out); err != nil {
		return "", err
	}
	return out["status"], nil
}

// Stats fetches the per-tenant aggregate view.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.do("GET", "/v1/stats", nil, &out)
	return out, err
}

// StreamedResult is the parsed NDJSON result stream.
type StreamedResult struct {
	Cols           []string
	Rows           []string // one compact tuple per entry, Table.String rendering
	CompactTuples  int
	ExpandedTuples int
	Converged      bool
	QuestionsAsked int
	Iterations     int
	Degraded       *compact.Degraded
	DegradedLine   string
	Stats          *engine.StatsSnapshot
	Explain        string
}

// TableString reassembles the result exactly as compact.Table.String
// renders the library-path table — the byte-identity contract the server
// tests pin.
func (r *StreamedResult) TableString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s)\n", strings.Join(r.Cols, ", "))
	for _, row := range r.Rows {
		b.WriteString("  " + row + "\n")
	}
	return b.String()
}

// Result finalizes the session (first call) and streams the result.
// explain asks for the EXPLAIN trace (needs trace=true at create);
// deadlineMS bounds the finalize execution.
func (c *Client) Result(id string, explain bool, deadlineMS int64) (*StreamedResult, error) {
	path := "/v1/sessions/" + id + "/result"
	sep := "?"
	if explain {
		path += sep + "explain=1"
		sep = "&"
	}
	if deadlineMS > 0 {
		path += fmt.Sprintf("%sdeadline_ms=%d", sep, deadlineMS)
	}
	req, err := http.NewRequest("GET", c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return nil, &apiError{Status: resp.StatusCode, Msg: msg}
	}
	out := &StreamedResult{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	ended := false
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("server: bad stream line %q: %w", sc.Text(), err)
		}
		switch line.Type {
		case "header":
			out.Cols = line.Cols
			out.CompactTuples = line.CompactTuples
			out.ExpandedTuples = line.ExpandedTuples
			if line.Converged != nil {
				out.Converged = *line.Converged
			}
			out.QuestionsAsked = line.QuestionsAsked
			out.Iterations = line.Iterations
		case "row":
			out.Rows = append(out.Rows, line.Row)
		case "degraded":
			out.Degraded = line.Degraded
			out.DegradedLine = line.Summary
		case "stats":
			out.Stats = line.Stats
		case "explain":
			out.Explain = line.Text
		case "end":
			ended = true
		default:
			return nil, fmt.Errorf("server: unknown stream line type %q", line.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !ended {
		return nil, fmt.Errorf("server: result stream truncated (no end line)")
	}
	return out, nil
}
