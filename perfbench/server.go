package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"onex/internal/api"
	"onex/internal/shardrpc"
)

// datasetName is the name every workload registers its data under.
const datasetName = "bench"

// stack is the real /v1 HTTP stack in-process: api.Server.Routes() on a
// loopback listener, plus the shardrpc workers a workload serves shards
// from. Clients reach both over loopback TCP.
type stack struct {
	srv     *api.Server
	hs      *httptest.Server
	workers []*httptest.Server
	urls    []string
	client  *http.Client
	conns   int
}

// newStack boots the server and the workload's workers. wrapAPI and
// wrapWorker, when non-nil, wrap the handlers (the traced run times them).
func newStack(w *workload, wrapAPI, wrapWorker func(http.Handler) http.Handler) (*stack, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := &stack{conns: runtime.NumCPU()}
	for i := 0; i < w.workers; i++ {
		var h http.Handler = shardrpc.NewWorker(logger).Handler()
		if wrapWorker != nil {
			h = wrapWorker(h)
		}
		ws := httptest.NewServer(h)
		s.workers = append(s.workers, ws)
		s.urls = append(s.urls, ws.URL)
	}
	// The default dataset api.New insists on is kept tiny; the workload's
	// own data is registered over HTTP.
	srv, err := api.New(api.Config{
		Generator: "ItalyPower", Scale: 0.1, ST: 0.2, Lengths: 2, Seed: 1,
		MaxJobs: 4096, JobTTL: time.Minute, AllowFS: true, Logger: logger,
	})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("boot server: %w", err)
	}
	s.srv = srv
	var h http.Handler = srv.Routes()
	if wrapAPI != nil {
		h = wrapAPI(h)
	}
	s.hs = httptest.NewServer(h)
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     s.conns,
			MaxIdleConnsPerHost: s.conns,
		},
	}
	return s, nil
}

func (s *stack) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.hs != nil {
		s.hs.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, ws := range s.workers {
		ws.Close()
	}
}

type seriesJSON struct {
	Values []float64 `json:"values"`
}

// register posts the workload's series and waits until the dataset is
// ready; it returns the wall time and the indexed lengths.
func (s *stack) register(w *workload, in *inputs, seed int64) (time.Duration, []int, error) {
	body := map[string]any{
		"name": datasetName, "st": w.st, "seed": seed, "lengths": w.lengthCount,
		"shards": w.shards, "wait": true,
	}
	if len(s.urls) > 0 {
		body["shardWorkers"] = s.urls
	}
	series := make([]seriesJSON, len(in.raw))
	for i, v := range in.raw {
		series[i] = seriesJSON{Values: v}
	}
	body["series"] = series
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	status, resp, err := s.send(http.MethodPost, "/v1/datasets", "", buf)
	elapsed := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if status != http.StatusCreated {
		return 0, nil, fmt.Errorf("register: status %d: %s", status, resp)
	}
	var info struct {
		Lengths []int `json:"lengths"`
	}
	if err := json.Unmarshal(resp, &info); err != nil {
		return 0, nil, fmt.Errorf("register: %w", err)
	}
	return elapsed, info.Lengths, nil
}

// drop removes the registered dataset.
func (s *stack) drop() error {
	status, resp, err := s.send(http.MethodDelete, "/v1/datasets/"+datasetName, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("drop: status %d: %s", status, resp)
	}
	return nil
}

// send issues one request and reads the whole response.
func (s *stack) send(method, path, reqID string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.hs.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// outcome is what one op got back.
type outcome struct {
	ok    bool
	body  []byte
	polls int
	err   string
}

// request encodes o as the method, path and JSON body it is sent with; the
// generator does this before an op is due, so encoding is not timed.
func request(w *workload, o op) (method, path string, body []byte) {
	ds := "/v1/datasets/" + datasetName
	var v any
	switch o.family {
	case famMatch:
		method, path, v = http.MethodPost, ds+"/match", map[string]any{"query": o.query, "mode": "any"}
	case famKNN:
		method, path, v = http.MethodPost, ds+"/match", map[string]any{"query": o.query, "mode": w.knnMode, "k": w.knnK}
	case famRange:
		method, path, v = http.MethodPost, ds+"/range", map[string]any{"query": o.query, "length": o.length, "radius": w.radius}
	case famJob:
		method, path, v = http.MethodPost, ds+"/range/jobs", map[string]any{"query": o.query, "length": o.length, "radius": w.radius}
	case famSeasonal:
		return http.MethodGet, ds + "/seasonal?length=" + strconv.Itoa(o.length) + "&series=" + strconv.Itoa(o.series), nil
	case famBatch:
		items := make([]map[string]any, len(o.batch))
		for i, q := range o.batch {
			items[i] = map[string]any{"query": q}
		}
		method, path, v = http.MethodPost, ds+"/match/batch", map[string]any{"queries": items}
	case famAppend:
		method, path, v = http.MethodPost, ds+"/append", map[string]any{"seriesId": o.series, "points": o.points}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // float64 slices and strings always encode
	}
	return method, path, body
}

// do performs o against the registered dataset. A job op submits, then
// polls until the job is terminal; its body is the final job view.
func (s *stack) do(o op) outcome {
	status, body, err := s.send(o.method, o.path, o.id, o.body)
	if err != nil {
		return outcome{err: err.Error()}
	}
	if status < 200 || status > 299 {
		return outcome{err: fmt.Sprintf("%s: status %d: %.200s", o.family, status, body)}
	}
	if o.family == famJob {
		return s.poll(o, body)
	}
	return outcome{ok: true, body: body}
}

// poll follows a submitted job until it is terminal.
func (s *stack) poll(o op, submitted []byte) outcome {
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if json.Unmarshal(submitted, &view) != nil || view.ID == "" {
		return outcome{err: fmt.Sprintf("job submit: %.200s", submitted)}
	}
	deadline := time.Now().Add(60 * time.Second)
	for polls := 1; time.Now().Before(deadline); polls++ {
		status, body, err := s.send(http.MethodGet, "/v1/jobs/"+view.ID, o.id, nil)
		if err != nil {
			return outcome{err: err.Error(), polls: polls}
		}
		if status != http.StatusOK || json.Unmarshal(body, &view) != nil {
			return outcome{err: fmt.Sprintf("job poll: status %d: %.200s", status, body), polls: polls}
		}
		switch view.State {
		case "done":
			return outcome{ok: true, body: body, polls: polls}
		case "failed", "canceled":
			return outcome{err: "job " + view.State + ": " + string(body), polls: polls}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return outcome{err: "job timed out"}
}
