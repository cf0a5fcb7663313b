package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"coolopt/internal/roomapi"
)

// requestHeader carries the request's stream ID, so the traced run can
// join server-side spans to the client's. It is sent on every request,
// traced or not, so both runs send identical bytes.
const requestHeader = "Servebench-Request"

// Client is one closed-loop caller: it holds a single keep-alive
// connection and fully decodes every response, as a controller acting on
// the plan would.
type Client struct {
	hc   *http.Client
	base string
	body bytes.Buffer
}

// NewClient returns a client of the server at base.
func NewClient(base string) *Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

// Close drops the client's connection.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Exchange is one /v1/plan round trip as the caller saw it.
type Exchange struct {
	// Sent, Received and Decoded bracket the exchange: request written,
	// body fully read, body decoded.
	Sent, Received, Decoded time.Time
	Bytes                   int
	Result                  roomapi.PlanResult
	// Verdict is OK, FailTransport, FailStatus or FailDecode; the plan
	// itself is judged by checkPlan.
	Verdict Verdict
}

// Plan sends one request and decodes the answer.
func (c *Client) Plan(req Request) Exchange {
	var ex Exchange
	hreq, err := http.NewRequest(http.MethodGet, c.base+"/v1/plan?"+req.Query(), nil)
	if err != nil {
		ex.Verdict = FailTransport
		return ex
	}
	hreq.Header.Set(requestHeader, strconv.Itoa(req.ID))
	ex.Sent = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		ex.Verdict = FailTransport
		ex.Received, ex.Decoded = time.Now(), time.Now()
		return ex
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	ex.Received = time.Now()
	ex.Bytes = c.body.Len()
	switch {
	case err != nil:
		ex.Verdict = FailTransport
	case resp.StatusCode != http.StatusOK:
		ex.Verdict = FailStatus
	case json.Unmarshal(c.body.Bytes(), &ex.Result) != nil:
		ex.Verdict = FailDecode
	}
	ex.Decoded = time.Now()
	return ex
}
