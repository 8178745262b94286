// Command dpss-serve runs the SmartDPSS controller as a long-lived
// service: a resumable session stepped slot-by-slot from an ingest
// source, with periodic disk checkpoints for crash recovery and an HTTP
// monitoring surface (/metrics in OpenMetrics text, /healthz, /status).
// The current ingest source replays generated traces; live telemetry
// adapters plug in behind the same serve.Source interface.
//
// Usage:
//
//	dpss-serve [-addr host:port] [-policy smartdpss|impatient|lyapunov]
//	           [-days N] [-seed S]
//	           [-checkpoint file] [-checkpoint-every N]
//	           [-interval dur] [-max-slots N]
//	           [-oneshot] [-smoke]
//
// Examples:
//
//	dpss-serve                                    # serve a 31-day replay on :9464
//	dpss-serve -interval 1s -checkpoint dpss.ckpt # paced, crash-recoverable
//	dpss-serve -oneshot                           # batch run via the ingest loop
//	dpss-serve -smoke                             # self-check: scrape + validate
//
// On SIGINT/SIGTERM the daemon writes a final checkpoint (when
// -checkpoint is set) and exits cleanly; restarting with the same flags
// resumes bit-for-bit from the checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	dpss "github.com/smartdpss/smartdpss"
	"github.com/smartdpss/smartdpss/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dpss-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dpss-serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:9464", "HTTP listen address for /metrics, /healthz, /status")
		policy     = fs.String("policy", "smartdpss", "control policy: smartdpss|impatient|lyapunov (resumable online policies)")
		days       = fs.Int("days", 31, "replay trace horizon in days")
		seed       = fs.Int64("seed", 1, "trace generator seed")
		checkpoint = fs.String("checkpoint", "", "checkpoint file for crash recovery (empty disables)")
		ckptEvery  = fs.Int("checkpoint-every", 24, "committed slots between checkpoint writes")
		interval   = fs.Duration("interval", 0, "wall-clock pacing between slots (0 free-runs the replay)")
		maxSlots   = fs.Int("max-slots", 0, "stop after committing this many slots in this process (0 = run to the horizon)")
		oneshot    = fs.Bool("oneshot", false, "run the ingest loop to completion, print the report, exit without serving HTTP")
		smoke      = fs.Bool("smoke", false, "self-check: serve, scrape /metrics over HTTP, validate OpenMetrics, exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var pol dpss.Policy
	switch *policy {
	case "smartdpss":
		pol = dpss.PolicySmartDPSS
	case "impatient":
		pol = dpss.PolicyImpatient
	case "lyapunov":
		pol = dpss.PolicyLyapunov
	default:
		return fmt.Errorf("unknown policy %q (want smartdpss, impatient or lyapunov)", *policy)
	}

	tc := dpss.DefaultTraceConfig()
	tc.Days = *days
	tc.Seed = *seed
	traces, err := dpss.GenerateTraces(tc)
	if err != nil {
		return err
	}
	sess, err := dpss.NewReplaySession(pol, dpss.DefaultOptions(), traces)
	if err != nil {
		return err
	}
	var src serve.Source
	src, err = serve.NewReplaySource(traces)
	if err != nil {
		return err
	}
	limit := *maxSlots
	if *smoke && limit == 0 {
		limit = min(48, sess.Horizon()) // two simulated days is plenty for a scrape
	}
	if limit > 0 {
		src = &limitedSource{Source: src, remaining: limit}
	}

	d, err := serve.New(serve.Config{
		Session:         sess,
		Source:          src,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *ckptEvery,
		Interval:        *interval,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dpss-serve: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *oneshot {
		if err := d.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		return printReport(d)
	}
	if *smoke {
		return runSmoke(ctx, d, *addr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "dpss-serve: %s policy on http://%s (horizon %d slots, resuming at %d)\n",
		*policy, ln.Addr(), sess.Horizon(), sess.Slot())

	runErr := d.Run(ctx)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && runErr == nil {
		runErr = err
	}
	if errors.Is(runErr, context.Canceled) {
		runErr = nil // clean signal-driven shutdown
	}
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(os.Stderr, "dpss-serve: ingest finished at slot %d/%d (%d checkpoints)\n",
		sess.Slot(), sess.Horizon(), d.Checkpoints())
	return nil
}

// runSmoke is the CI self-check: serve on addr (falling back to an
// ephemeral port), drive the bounded replay to completion, scrape
// /metrics and /healthz over real HTTP, validate the OpenMetrics
// exposition, and shut down cleanly.
func runSmoke(ctx context.Context, d *serve.Daemon, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
	}
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(ln)
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()

	if err := d.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}

	base := "http://" + ln.Addr().String()
	body, contentType, err := get(ctx, base+"/metrics")
	if err != nil {
		return err
	}
	if ct := "application/openmetrics-text"; len(contentType) < len(ct) || contentType[:len(ct)] != ct {
		return fmt.Errorf("smoke: /metrics Content-Type %q is not OpenMetrics", contentType)
	}
	if err := serve.ValidateExposition(body); err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	if sess := d.Session(); sess.Slot() == 0 {
		return errors.New("smoke: no slots committed")
	}
	if health, _, err := get(ctx, base+"/healthz"); err != nil {
		return err
	} else if string(health) != "ok\n" {
		return fmt.Errorf("smoke: /healthz returned %q", health)
	}
	fmt.Printf("serve-smoke: ok (%d slots, %d bytes of metrics from %s)\n",
		d.Session().Slot(), len(body), base)
	return nil
}

func get(ctx context.Context, url string) (body []byte, contentType string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err = io.ReadAll(resp.Body)
	return body, resp.Header.Get("Content-Type"), err
}

func printReport(d *serve.Daemon) error {
	rep, err := d.Session().Finish()
	if err != nil {
		return err
	}
	fmt.Printf("policy      %s\n", rep.Controller)
	fmt.Printf("slots       %d\n", rep.Slots)
	fmt.Printf("total cost  %.2f USD\n", rep.TotalCostUSD)
	fmt.Printf("avg cost    %.4f USD/slot\n", rep.TimeAvgCostUSD)
	fmt.Printf("avg delay   %.4f slots\n", rep.MeanDelaySlots)
	fmt.Printf("checkpoints %d\n", d.Checkpoints())
	return nil
}

// limitedSource caps the number of observations handed out in this
// process — the knob behind -max-slots and the crash-recovery tests.
type limitedSource struct {
	serve.Source
	remaining int
}

func (l *limitedSource) Next(ctx context.Context) (serve.Observation, error) {
	if l.remaining <= 0 {
		return serve.Observation{}, io.EOF
	}
	obs, err := l.Source.Next(ctx)
	if err == nil {
		l.remaining--
	}
	return obs, err
}
