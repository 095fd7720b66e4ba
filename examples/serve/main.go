// Serve: drive the sweep-as-a-service layer in process — the same engine
// cmd/nocsprintd wraps in HTTP. Starts a server on a temporary state
// directory, submits a fast fig11 sweep with a deadline, streams its state
// transitions, then kills the server mid-flight on a second job and
// restarts it to show crash recovery resuming from the checkpoint journal.
//
// Run with: go run ./examples/serve
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"nocsprint/internal/serve"
)

func main() {
	state, err := os.MkdirTemp("", "nocsprint-serve-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(state)

	srv, err := serve.New(serve.Config{StateDir: state, QueueCap: 4})
	if err != nil {
		log.Fatal(err)
	}

	// One fast fig11 sweep with a deadline. Submit is what POST /v1/jobs
	// calls after spec validation.
	job, err := srv.Submit(serve.JobSpec{
		Experiment: "fig11",
		Fast:       true,
		Workers:    0, // all cores
		Timeout:    serve.Duration(5 * time.Minute),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (%s)\n", job.ID, job.Spec.Experiment)

	last := serve.JobState("")
	for {
		v, ok := srv.Job(job.ID)
		if !ok {
			log.Fatalf("job %s vanished", job.ID)
		}
		if v.State != last {
			fmt.Printf("  %s\n", v.State)
			last = v.State
		}
		if v.State.Terminal() {
			if v.State != serve.StateDone {
				log.Fatalf("job ended %s: %s", v.State, v.Error)
			}
			fmt.Printf("result: %d bytes of fig11 JSON\n", len(v.Result))
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Crash mid-job: submit another sweep, tear the server down the hard way
	// (Abort cancels in-flight points at cycle granularity — the closest an
	// in-process demo gets to kill -9), and restart on the same state dir.
	// The journal under <state>/jobs/<id>/ carries every completed point, so
	// the restarted server resumes instead of recomputing.
	// One worker keeps the sweep slow enough for the crash to land mid-job;
	// abort the moment the executor picks it up.
	job2, err := srv.Submit(serve.JobSpec{Experiment: "fig11", Fast: true, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	for {
		v, ok := srv.Job(job2.ID)
		if ok && v.State != serve.StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let a point or two land in the journal
	srv.Abort()
	srv.Close()
	fmt.Printf("server killed with %s in flight\n", job2.ID)

	srv2, err := serve.New(serve.Config{StateDir: state, QueueCap: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	fmt.Printf("restarted: recovered %d job(s)\n", srv2.MetricsSnapshot().Recovered)
	for {
		v, ok := srv2.Job(job2.ID)
		if !ok {
			log.Fatalf("job %s not recovered", job2.ID)
		}
		if v.State.Terminal() {
			fmt.Printf("recovered job finished %s with %d result bytes\n", v.State, len(v.Result))
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
}
