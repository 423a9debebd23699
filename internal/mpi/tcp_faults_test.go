package mpi

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
)

// TestTCPConnRefusedAtConnFor kills a rank's listener before any connection
// to it exists: the lazy dial in connFor must surface the refusal as a send
// error without disturbing the rest of the mesh.
func TestTCPConnRefusedAtConnFor(t *testing.T) {
	w, err := NewTCPWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := w.tr.(*tcpTransport)
	tr.listeners[1].Close()

	if err := w.Comm(0).Send(1, 1, []byte("into the void")); err == nil {
		t.Fatal("send to dead rank succeeded")
	}
	// Other pairs are unaffected.
	if err := w.Comm(0).Send(2, 1, []byte("alive")); err != nil {
		t.Fatalf("send to live rank: %v", err)
	}
	if data, _, err := w.Comm(2).Recv(0, 1); err != nil || string(data) != "alive" {
		t.Fatalf("recv on live rank: %q, %v", data, err)
	}
}

// TestTCPMidMessageCloseDoesNotPoisonRank feeds rank 1's listener a
// truncated frame (header promising more bytes than arrive) on a raw
// connection that then dies. The read loop for that connection must exit
// quietly; the rank keeps receiving on other connections.
func TestTCPMidMessageCloseDoesNotPoisonRank(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := w.tr.(*tcpTransport)

	raw, err := net.Dial("tcp", tr.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], 0)   // src
	binary.BigEndian.PutUint32(hdr[4:8], 7)   // tag
	binary.BigEndian.PutUint32(hdr[8:12], 99) // promises 99 bytes...
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("only ten b")); err != nil { // ...delivers 10
		t.Fatal(err)
	}
	raw.Close()

	// The complete message on a healthy connection must still arrive, and
	// the torn frame must never be delivered.
	if err := w.Comm(0).Send(1, 7, []byte("whole")); err != nil {
		t.Fatal(err)
	}
	data, st, err := w.Comm(1).Recv(0, 7)
	if err != nil || string(data) != "whole" {
		t.Fatalf("recv = %q, %+v, %v", data, st, err)
	}
	if n := queued(w, 1); n != 0 {
		t.Fatalf("truncated frame was delivered: %d message(s) queued", n)
	}
}

// TestTCPAnySourceReceiveWhileSenderDies has two senders racing to an
// ANY_SOURCE receiver while one of them is killed by an injected fault: the
// receiver must still complete with the surviving sender's message.
func TestTCPAnySourceReceiveWhileSenderDies(t *testing.T) {
	inj := faults.New(1, faults.Rule{Component: "mpi.rank1", Operation: "send", Action: faults.Drop})
	w, err := NewTCPWorldOptions(3, TCPOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	recvd := make(chan error, 1)
	go func() {
		data, st, err := w.Comm(0).Recv(AnySource, 9)
		if err == nil && (st.Source != 2 || string(data) != "survivor") {
			t.Errorf("recv = %q from rank %d", data, st.Source)
		}
		recvd <- err
	}()
	// Rank 1 dies on its send; deterministic under the rule above.
	if err := w.Comm(1).Send(0, 9, []byte("casualty")); !faults.IsInjected(err) {
		t.Fatalf("dead sender's send: %v, want injected", err)
	}
	if err := w.Comm(2).Send(0, 9, []byte("survivor")); err != nil {
		t.Fatalf("surviving sender: %v", err)
	}
	select {
	case err := <-recvd:
		if err != nil {
			t.Fatalf("receiver: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ANY_SOURCE receive hung after sender death")
	}
}

// TestTCPSendRetriesAfterInjectedDrop verifies the transport forgets a
// dropped connection: the send after the fault redials and succeeds.
func TestTCPSendRetriesAfterInjectedDrop(t *testing.T) {
	inj := faults.New(1, faults.Rule{Component: "mpi.rank0", Operation: "write", Until: 1, Action: faults.Drop})
	w, err := NewTCPWorldOptions(2, TCPOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// First send dies on the wrapped conn's write fault.
	if err := w.Comm(0).Send(1, 3, []byte("lost")); !faults.IsInjected(err) {
		t.Fatalf("first send: %v, want injected", err)
	}
	// Second send must redial rather than reuse the closed socket.
	if err := w.Comm(0).Send(1, 3, []byte("after redial")); err != nil {
		t.Fatalf("second send: %v", err)
	}
	if data, _, err := w.Comm(1).Recv(0, 3); err != nil || string(data) != "after redial" {
		t.Fatalf("recv = %q, %v", data, err)
	}
}
