package adapter

import (
	"sync"
	"time"

	"testing"

	"tigatest/internal/game"
	"tigatest/internal/model"
	"tigatest/internal/models"
	"tigatest/internal/tctl"
	"tigatest/internal/texec"
	"tigatest/internal/tiots"
)

func TestRoundTripProtocol(t *testing.T) {
	spec := models.SmartLight()
	impl := model.ExtractPlant(spec, models.SmartLightPlant(spec), "Stub")
	srv, err := Serve("127.0.0.1:0", tiots.NewDetIUT(impl, tiots.Scale, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	cli.Reset()
	touch, _ := spec.ChannelByName("touch")
	if err := cli.Offer(touch); err != nil {
		t.Fatal(err)
	}
	// After a touch from Off (x=0 < Tidle) the light enters L1 and must dim
	// within 2 units; the default policy fires as soon as enabled (t=0).
	out := cli.Advance(5 * tiots.Scale)
	if out == nil {
		t.Fatal("expected the dim output over TCP")
	}
	dim, _ := spec.ChannelByName("dim")
	if out.Chan != dim {
		t.Fatalf("expected dim, got channel %d", out.Chan)
	}
	if cli.Err() != nil {
		t.Fatal(cli.Err())
	}
}

func TestQuietAdvance(t *testing.T) {
	spec := models.SmartLight()
	impl := model.ExtractPlant(spec, models.SmartLightPlant(spec), "Stub")
	srv, err := Serve("127.0.0.1:0", tiots.NewDetIUT(impl, tiots.Scale, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Reset()
	// No input given: the light stays Off silently.
	if out := cli.Advance(30 * tiots.Scale); out != nil {
		t.Fatalf("expected quiescence, got %+v", out)
	}
}

func TestFullRemoteTestRun(t *testing.T) {
	// End-to-end: Algorithm 3.1 drives a black box over TCP and passes.
	spec := models.SmartLight()
	f := tctl.MustParse(models.SmartLightEnv(spec), models.SmartLightGoal)
	res, err := game.Solve(spec, f, game.Options{})
	if err != nil || !res.Winnable {
		t.Fatalf("solve: %v winnable=%v", err, res != nil && res.Winnable)
	}
	cs, err := res.CompiledStrategy()
	if err != nil {
		t.Fatal(err)
	}

	impl := model.ExtractPlant(spec, models.SmartLightPlant(spec), "Stub")
	srv, err := Serve("127.0.0.1:0", tiots.NewDetIUT(impl, tiots.Scale, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	verdict := texec.Run(cs, cli, texec.Options{PlantProcs: models.SmartLightPlant(spec)})
	if verdict.Verdict != texec.Pass {
		t.Fatalf("remote conformant implementation must pass, got %s", verdict)
	}
}

func TestServerRejectsUnknownMessage(t *testing.T) {
	spec := models.SmartLight()
	impl := model.ExtractPlant(spec, models.SmartLightPlant(spec), "Stub")
	srv, err := Serve("127.0.0.1:0", tiots.NewDetIUT(impl, tiots.Scale, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.roundTrip(Message{Type: "bogus"}); err == nil {
		t.Fatal("unknown message must be rejected")
	}
}

// TestConcurrentSessions drives many isolated sessions against one
// factory-mode server at once: every connection gets its own IUT, so all
// parallel runs must pass independently (this is what lets campaign
// workers share one TCP-hosted implementation host).
func TestConcurrentSessions(t *testing.T) {
	spec := models.SmartLight()
	plant := models.SmartLightPlant(spec)
	f := tctl.MustParse(models.SmartLightEnv(spec), models.SmartLightGoal)
	res, err := game.Solve(spec, f, game.Options{})
	if err != nil || !res.Winnable {
		t.Fatalf("solve: %v winnable=%v", err, res != nil && res.Winnable)
	}
	cs, err := res.CompiledStrategy()
	if err != nil {
		t.Fatal(err)
	}

	impl := model.ExtractPlant(spec, plant, "Stub")
	srv, err := ServeFactory("127.0.0.1:0", func() tiots.IUT {
		return tiots.NewDetIUT(impl, tiots.Scale, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const sessions = 8
	// Connect everyone before anyone starts driving, so the sessions
	// genuinely overlap rather than queueing.
	clients := make([]*Client, sessions)
	for i := range clients {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		clients[i] = cli
	}

	var wg sync.WaitGroup
	verdicts := make([]texec.Result, sessions)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i] = texec.Run(cs, clients[i], texec.Options{PlantProcs: plant})
		}(i)
	}
	wg.Wait()
	for i, v := range verdicts {
		if v.Verdict != texec.Pass {
			t.Errorf("session %d: want pass, got %s (transport err: %v)", i, v, clients[i].Err())
		}
	}
}

// TestSerialServeStillExclusive pins the legacy mode: a single shared IUT
// is served one connection at a time, so a second dial only gets service
// after the first connection closes.
func TestSerialServeStillExclusive(t *testing.T) {
	spec := models.SmartLight()
	impl := model.ExtractPlant(spec, models.SmartLightPlant(spec), "Stub")
	srv, err := Serve("127.0.0.1:0", tiots.NewDetIUT(impl, tiots.Scale, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	first.Reset() // the first session owns the server

	done := make(chan struct{})
	go func() {
		second.Reset() // blocks until the first connection closes
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("second session was served while the first still owned the IUT")
	case <-time.After(50 * time.Millisecond):
	}
	first.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second session never got served after the first closed")
	}
}

// seedRecorder is a minimal randomized-IUT stand-in: it records the seeds
// the protocol delivers.
type seedRecorder struct {
	tiots.IUT
	mu    sync.Mutex
	seeds []int64
}

func (s *seedRecorder) Seed(seed int64) {
	s.mu.Lock()
	s.seeds = append(s.seeds, seed)
	s.mu.Unlock()
}

// TestSeedForwarding pins the per-run seed path for randomized remote
// IUTs: Client.Seed reaches a tiots.Seeder host, and deterministic hosts
// (no Seeder) just acknowledge.
func TestSeedForwarding(t *testing.T) {
	spec := models.SmartLight()
	impl := model.ExtractPlant(spec, models.SmartLightPlant(spec), "Stub")
	rec := &seedRecorder{IUT: tiots.NewDetIUT(impl, tiots.Scale, nil)}
	srv, err := ServeFactory("127.0.0.1:0", func() tiots.IUT { return rec })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Seed(42); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	got := append([]int64(nil), rec.seeds...)
	rec.mu.Unlock()
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("host must receive the forwarded seed, got %v", got)
	}

	// A deterministic host has no Seeder; seeding must still succeed.
	det, err := ServeFactory("127.0.0.1:0", func() tiots.IUT {
		return tiots.NewDetIUT(impl, tiots.Scale, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	cli2, err := Dial(det.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if err := cli2.Seed(7); err != nil {
		t.Fatalf("seeding a deterministic host must be a no-op, got %v", err)
	}
}
