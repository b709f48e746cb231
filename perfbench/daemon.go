package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/store"
)

// daemon is the real service stack in process: a jobs.Manager configured
// as rrcsimd's flag defaults configure it, behind server.New, served on a
// loopback listener.
type daemon struct {
	manager *jobs.Manager
	store   *store.Store
	srv     *http.Server
	done    chan error
	base    string
	client  *http.Client
}

// daemonConfig mirrors rrcsimd's defaults: -queue-depth 32, -cache-size
// 128, -cell-cache-size 1024, -runners 1, -parallel 0, -cell-parallel 0,
// -trace-cache-bytes 32 MiB, and a store only when -store-dir is given.
func daemonConfig(st *store.Store) jobs.Config {
	return jobs.Config{
		QueueDepth:      32,
		CacheSize:       128,
		CellCacheSize:   1024,
		Runners:         1,
		Workers:         0,
		CellParallel:    0,
		Store:           st,
		TraceCacheBytes: 32 << 20,
	}
}

// startDaemon opens the store (when storeDir is set), starts the manager
// and serves it on 127.0.0.1. conns bounds the client's connections.
func startDaemon(storeDir string, conns int) (*daemon, error) {
	d := &daemon{done: make(chan error, 1)}
	if storeDir != "" {
		st, err := store.Open(store.Config{Dir: storeDir})
		if err != nil {
			return nil, fmt.Errorf("opening store: %w", err)
		}
		d.store = st
	}
	d.manager = jobs.NewManager(daemonConfig(d.store))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.manager.Close()
		if d.store != nil {
			d.store.Close()
		}
		return nil, err
	}
	d.srv = &http.Server{Handler: server.New(d.manager)}
	go func() { d.done <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return d, nil
}

// close shuts the listener, the manager and the store down in rrcsimd's
// order and waits for the serving goroutine.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	d.manager.Close()
	if d.store != nil {
		if cerr := d.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// callTimes is what the client sees of one job: when each HTTP call was
// sent and answered, the job id, and the result bytes.
type callTimes struct {
	id        string
	sent      time.Time // POST sent
	submitted time.Time // POST answered
	streamAt  time.Time // stream GET sent
	streamEnd time.Time // stream read to EOF
	resultAt  time.Time // result GET sent
	done      time.Time // result bytes received
	body      []byte
}

// httpError is a non-2xx answer; a 503 is a refusal (queue full).
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func (d *daemon) do(req *http.Request) ([]byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return body, &httpError{code: resp.StatusCode, body: string(bytes.TrimSpace(body))}
	}
	return body, nil
}

// post submits a spec over POST /v1/jobs.
func (d *daemon) post(spec jobs.Spec) (jobs.Status, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return jobs.Status{}, err
	}
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return jobs.Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	body, err := d.do(req)
	if err != nil {
		return jobs.Status{}, fmt.Errorf("submitting: %w", err)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return jobs.Status{}, fmt.Errorf("decoding submit status: %w", err)
	}
	return st, nil
}

// stream reads /v1/jobs/{id}/stream to EOF; the last event must report
// the job done.
func (d *daemon) stream(id string) error {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return &httpError{code: resp.StatusCode, body: string(bytes.TrimSpace(body))}
	}
	var last server.StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("decoding stream event: %w", err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if last.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, last.State, last.Error)
	}
	return nil
}

// result fetches /v1/jobs/{id}/result in the given format.
func (d *daemon) result(id, format string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+"/v1/jobs/"+id+"/result?format="+format, nil)
	if err != nil {
		return nil, err
	}
	return d.do(req)
}

// runJob drives one job the way a client does: POST, read the stream to
// EOF, fetch the result. It returns when the result bytes arrived.
func (d *daemon) runJob(j jobReq) (callTimes, error) {
	ct := callTimes{sent: time.Now()}
	st, err := d.post(j.spec)
	ct.submitted = time.Now()
	if err != nil {
		return ct, err
	}
	ct.id = st.ID
	ct.streamAt = time.Now()
	err = d.stream(ct.id)
	ct.streamEnd = time.Now()
	if err != nil {
		return ct, err
	}
	ct.resultAt = time.Now()
	ct.body, err = d.result(ct.id, j.format)
	ct.done = time.Now()
	return ct, err
}

func countNon2xx(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return 1
	}
	return 0
}

// popularStore builds, outside every timer, the store a store workload's
// set-ups start from: every popular cell is computed straight through a
// manager, one job at a time, and persisted. It returns the store's
// directory ("" for a workload without a store) and the cell keys.
func popularStore(w *benchWorkload, gen *specGen, scratch string) (string, []string, error) {
	if !w.store {
		return "", nil, nil
	}
	dir := filepath.Join(scratch, "popular")
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return "", nil, fmt.Errorf("opening store: %w", err)
	}
	m := jobs.NewManager(daemonConfig(st))
	keys, err := runAll(m, gen.fill)
	m.Close()
	if cerr := st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return "", nil, fmt.Errorf("filling store: %w", err)
	}
	return dir, keys, nil
}

// runAll runs each job through the manager in turn and returns the keys
// of their cells.
func runAll(m *jobs.Manager, js []jobReq) ([]string, error) {
	var keys []string
	for _, j := range js {
		job, err := m.Submit(j.spec)
		if err != nil {
			return nil, err
		}
		<-job.Done()
		if err := job.Err(); err != nil {
			return nil, err
		}
		keys = append(keys, cellKeys(job.Result())...)
	}
	return keys, nil
}

func cellKeys(res *jobs.Result) []string {
	keys := make([]string, len(res.Cells))
	for i, c := range res.Cells {
		keys[i] = c.Key
	}
	return keys
}

// setupDaemon is one timed set-up: a daemon starts, over storeDir when
// the workload has a store, so journal recovery is part of it; then the
// first job runs untimed. The first job is a popular one, served from the
// store without writing to it, so repeated set-ups over one directory
// recover the same journal. It returns the daemon ready for the timed
// window and the keys of the first job's cells.
func setupDaemon(w *benchWorkload, storeDir string, first jobReq) (*daemon, []string, error) {
	conns := 1
	if w.open {
		conns = w.conns
	}
	d, err := startDaemon(storeDir, conns)
	if err != nil {
		return nil, nil, err
	}
	ct, err := d.runJob(first)
	if err != nil {
		d.close()
		return nil, nil, fmt.Errorf("warm-up job: %w", err)
	}
	var keys []string
	if job, ok := d.manager.Get(ct.id); ok {
		keys = cellKeys(job.Result())
	}
	return d, keys, nil
}
