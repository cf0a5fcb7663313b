package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"coolopt/internal/core"
	"coolopt/internal/engine"
	"coolopt/internal/roomapi"
	"coolopt/internal/sim"
)

// Stack is one pod-only serving stack, assembled from the constructors
// `pland -pods … -plan-mode hier` serves from: profile → pod tables →
// engine → roomapi server → http.Server on a loopback listener.
type Stack struct {
	Profile *core.Profile
	Pods    *core.PodSnapshot
	Engine  *engine.Engine
	Base    string // http://127.0.0.1:port

	// Build is the time core.NewPodSnapshot took; Setup the time from
	// profile generation until /v1/readyz answered 200.
	Build time.Duration
	Setup time.Duration

	srv    *http.Server
	served chan error
}

// StartStack generates the seeded profile, builds and starts the stack,
// and waits until it is ready. wrap, if non-nil, wraps the roomapi
// handler (the traced run's span recorder).
func StartStack(n int, seed int64, wrap func(http.Handler) http.Handler) (*Stack, error) {
	start := time.Now()
	st := &Stack{Profile: syntheticProfile(n, seed)}
	var err error
	st.Pods, err = core.NewPodSnapshot(st.Profile, 0)
	if err != nil {
		return nil, fmt.Errorf("pod tables: %w", err)
	}
	st.Build = time.Since(start)
	if st.Engine, err = engine.FromPodSnapshot(st.Pods); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	// The control-plane room is the same small simulator pland attaches;
	// planning never touches it.
	room, err := sim.NewDefault(seed)
	if err != nil {
		return nil, fmt.Errorf("room: %w", err)
	}
	api, err := roomapi.NewServer(room, roomapi.WithEngine(st.Engine))
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	var h http.Handler = api
	if wrap != nil {
		h = wrap(api)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.Base = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	if err := st.awaitReady(); err != nil {
		_ = st.Close()
		return nil, err
	}
	st.Setup = time.Since(start)
	return st, nil
}

// awaitReady polls /v1/readyz until it answers 200.
func (st *Stack) awaitReady() error {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(st.Base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stack not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close shuts the server down and waits for its serve loop to return.
func (st *Stack) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if err != nil {
		_ = st.srv.Close()
	}
	if serr := <-st.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
