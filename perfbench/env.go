package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rulematch/internal/replica"
	"rulematch/internal/server"
)

// node is one in-process server behind a loopback listener, as emserve
// would run it.
type node struct {
	srv  *server.Server
	hs   *http.Server
	base string
	mgr  *replica.Manager // followers only
	done chan struct{}    // closed when hs.Serve returns
}

func serve(srv *server.Server, mgr *replica.Manager) (*node, error) {
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), mgr: mgr, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// close stops the listener, waits for Serve to return, stops the
// replication manager and syncs and closes the session journals.
func (n *node) close() {
	_ = n.hs.Close()
	<-n.done
	if n.mgr != nil {
		n.mgr.Stop()
	}
	n.srv.CloseSessions()
}

// env is one set-up of a workload: a durable primary with a datadir
// on local disk, and on replicate one follower.
type env struct {
	dir      string
	primary  *node
	follower *node
	client   *http.Client
	// bootstrap is how long the follower took from start until every
	// session's bootstrap was applied.
	bootstrap time.Duration
}

// startEnv builds the server from the production configuration,
// creates every session over HTTP and, when withFollower is set,
// starts a follower and waits until it has bootstrapped them all.
func startEnv(parent string, in *inputs, withFollower bool) (*env, error) {
	dir, err := os.MkdirTemp(parent, "datadir-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, client: &http.Client{Timeout: 60 * time.Second}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	srv := server.New(productionConfig())
	d, err := durability(filepath.Join(dir, "primary"))
	if err != nil {
		return nil, err
	}
	if err := srv.EnableDurability(d); err != nil {
		return nil, err
	}
	if e.primary, err = serve(srv, nil); err != nil {
		return nil, err
	}
	for _, s := range in.Sessions {
		if _, _, err := e.do(http.MethodPost, e.primary.base+"/v1/sessions", s.Body, http.StatusCreated, nil); err != nil {
			return nil, fmt.Errorf("create %s: %w", s.Name, err)
		}
	}
	if withFollower {
		if err := e.startFollower(in); err != nil {
			return nil, err
		}
	}
	ok = true
	return e, nil
}

// startFollower runs a replica node with emserve's replica defaults
// and waits for every session's bootstrap to be applied.
func (e *env) startFollower(in *inputs) error {
	start := time.Now()
	cfg := productionConfig()
	srv := server.New(cfg)
	srv.SetPrimary(e.primary.base)
	mgr := replica.New(replica.Config{PrimaryURL: e.primary.base, Store: srv.Store(), Core: cfg})
	srv.SetReplicaSource(mgr)
	mgr.Start()
	n, err := serve(srv, mgr)
	if err != nil {
		mgr.Stop()
		return err
	}
	e.follower = n
	deadline := time.Now().Add(60 * time.Second)
	for _, s := range in.Sessions {
		for {
			if _, ok := mgr.AppliedSeq(s.Name); ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower never bootstrapped %s", s.Name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	e.bootstrap = time.Since(start)
	return nil
}

func (e *env) close() {
	if e.follower != nil {
		e.follower.close()
	}
	if e.primary != nil {
		e.primary.close()
	}
	_ = os.RemoveAll(e.dir)
}

// do sends one request and decodes a JSON response into out (when
// non-nil). It returns the response headers and body size, and an
// error unless the status is want.
func (e *env) do(method, url string, body []byte, want int, out any) (http.Header, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != want {
		return nil, len(data), fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return nil, len(data), fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.Header, len(data), nil
}

func (e *env) sessionURL(base, name string) string { return base + "/v1/sessions/" + name }

// seqOf reads the Em-Seq header of an acknowledged write.
func seqOf(h http.Header) (uint64, error) {
	v := h.Get(server.HeaderSeq)
	if v == "" {
		return 0, errors.New("write acknowledged without Em-Seq")
	}
	return strconv.ParseUint(v, 10, 64)
}

// diskBytes sums the sizes of the regular files under dir.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}
