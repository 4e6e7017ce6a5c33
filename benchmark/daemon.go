package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// opTimeout is how long one request may take before it counts as failed.
const opTimeout = 10 * time.Second

// daemon is one spawned vmnd driven over its stdin/stdout pipes: one NDJSON
// request line in, one response line out, closed loop.
type daemon struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *os.File
	rd    *bufio.Reader
	line  []byte // reused response buffer; valid until the next request
	first []byte // the unsolicited first line (the starting verdict set)
	// setup is exec → first complete response line.
	setup time.Duration
}

// startDaemon spawns vmnd on a topology file and a state directory and reads
// the first response line, which carries the complete verdict set of the
// starting state.
func startDaemon(vmnd, topology, stateDir string) (*daemon, error) {
	cmd := exec.Command(vmnd, "-topology", topology, "-state-dir", stateDir, "-fsync", "always")
	// Should the harness itself be killed, no daemon outlives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = pw
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	pw.Close()
	d := &daemon{cmd: cmd, in: in, out: pr, rd: bufio.NewReaderSize(pr, 1<<20)}
	line, err := d.readLine()
	d.setup = time.Since(start)
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("vmnd did not answer: %w (stderr: %s)", err, bytes.TrimSpace(stderr.Bytes()))
	}
	d.first = append([]byte(nil), line...)
	return d, nil
}

// readLine reads one response line under the op timeout.
func (d *daemon) readLine() ([]byte, error) {
	if err := d.out.SetReadDeadline(time.Now().Add(opTimeout)); err != nil {
		return nil, err
	}
	d.line = d.line[:0]
	for {
		chunk, err := d.rd.ReadSlice('\n')
		d.line = append(d.line, chunk...)
		if err == nil {
			return d.line, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
	}
}

// roundTrip writes one request line and reads its response line, returning
// the response and the time between the two. The returned slice is reused by
// the next call.
func (d *daemon) roundTrip(req []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	if _, err := d.in.Write(req); err != nil {
		return nil, 0, err
	}
	line, err := d.readLine()
	return line, time.Since(start), err
}

// request is roundTrip for an untimed control request given as a value.
func (d *daemon) request(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	line, _, err := d.roundTrip(append(b, '\n'))
	return line, err
}

// stop closes stdin — vmnd drains, snapshots and exits 0 — and waits. It
// returns the child's peak resident set in MB.
func (d *daemon) stop() (rssMB float64, err error) {
	d.in.Close()
	err = d.cmd.Wait()
	d.out.Close()
	return d.rssMB(), err
}

// kill ends the child the hard way (a crash, as far as its state directory is
// concerned) and waits for it. After stop it does nothing.
func (d *daemon) kill() float64 {
	if d.cmd.ProcessState != nil {
		return d.rssMB()
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.in.Close()
	d.out.Close()
	return d.rssMB()
}

func (d *daemon) rssMB() float64 {
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return 0
}

// cpuTime is the child's user+system CPU time, available after it exited.
func (d *daemon) cpuTime() time.Duration {
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
}
