package main

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"

	"partalloc"
)

// serveObs mounts the observability endpoints of eng, which must carry a
// metrics registry and a flight recorder, on addr and serves them in the
// background until ctx is done. It returns the bound address (useful
// with ":0"). Endpoints:
//
//	/metrics          Prometheus text exposition of eng's registry
//	/debug/vars       expvar (Go runtime memstats and cmdline)
//	/debug/pprof/     the standard pprof index, profile, trace, ...
//	/debug/flightrec  eng's event ring as JSONL
func serveObs(ctx context.Context, addr string, eng *partalloc.Engine) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = eng.Metrics().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = eng.FlightRecorder().WriteJSONL(w)
	})

	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	go func() {
		<-ctx.Done()
		_ = srv.Close()
	}()
	return ln.Addr().String(), nil
}
