package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"fabricgossip/internal/crypto"
	"fabricgossip/internal/ledger"
)

func testBlock(num uint64, txs int) *ledger.Block {
	rng := rand.New(rand.NewSource(int64(num) + 1))
	b := &ledger.Block{Num: num}
	for i := 0; i < txs; i++ {
		payload := make([]byte, rng.Intn(200))
		for j := range payload {
			payload[j] = byte(rng.Intn(256))
		}
		rw := ledger.RWSet{
			Reads: []ledger.KVRead{
				{Key: "key-a", Version: ledger.Version{BlockNum: num, TxNum: uint32(i)}},
				{Key: "key-b"},
			},
			Writes: []ledger.KVWrite{
				{Key: "key-a", Value: []byte{1, 2, 3}},
			},
		}
		tx := &ledger.Transaction{
			ID:        ledger.ProposalDigest("client", "cc", rw, payload),
			Client:    "client",
			Chaincode: "cc",
			RWSet:     rw,
			Endorsements: []ledger.Endorsement{
				{Org: "orgA", Name: "peer0", Sig: crypto.Signature{9, 9, 9}},
			},
			Payload: payload,
		}
		b.Txs = append(b.Txs, tx)
	}
	b.DataHash = ledger.ComputeDataHash(b.Txs)
	b.PrevHash = crypto.Hash([]byte("prev"))
	b.Sig = crypto.Signature{4, 5, 6}
	return b
}

// allMessages returns one populated instance of every message type. Its
// blocks are sealed, as every block a runtime sends is: a decoded block
// comes back sealed, so round-trip comparisons include the encoding.
func allMessages() []Message {
	blk := SealBlock(testBlock(7, 3))
	return []Message{
		&Data{Block: blk, Counter: 5},
		&PushDigest{Offers: []BlockOffer{{Num: 1, Counter: 2}, {Num: 900, Counter: 0}}},
		&PushRequest{Nums: []uint64{1, 2, 3}},
		&PullHello{Nonce: 42},
		&PullDigest{Nonce: 42, Nums: []uint64{10, 11, 12}},
		&PullRequest{Nonce: 42, Nums: []uint64{11}},
		&PullData{Nonce: 42, Block: blk},
		&StateInfo{Height: 123456},
		&StateRequest{From: 10, To: 20},
		&StateResponse{Batch: NewBlockBatch([]*ledger.Block{SealBlock(testBlock(1, 2)), SealBlock(testBlock(2, 1))})},
		&Alive{Seq: 9, Meta: []byte("peer0@orgA")},
		&RaftVoteRequest{Term: 3, Candidate: 2, LastLogIndex: 99, LastLogTerm: 2},
		&RaftVoteResponse{Term: 3, Granted: true},
		&RaftAppend{
			Term: 4, Leader: 1, PrevLogIndex: 10, PrevLogTerm: 3,
			Entries:      []RaftEntry{{Term: 4, Data: []byte("tx1")}, {Term: 4, Data: nil}},
			LeaderCommit: 9,
		},
		&RaftAppendResponse{Term: 4, Success: false, MatchIndex: 7},
		&RaftForward{Data: []byte("payload")},
		&SubmitTx{Tx: blk.Txs[0]},
		&DeliverBlock{Block: blk},
		&MemberEvents{Events: []MemberEvent{
			{Peer: 3, Seq: 17, Kind: EventAlive},
			{Peer: 900, Seq: 1 << 40, Kind: EventSuspect},
			{Peer: 0, Seq: 0, Kind: EventDead},
		}},
		&ShuffleRequest{Entries: []MemberEvent{{Peer: 1, Seq: 5, Kind: EventAlive}}},
		&ShuffleResponse{Entries: []MemberEvent{{Peer: 2, Seq: 6, Kind: EventSuspect}}},
	}
}

func TestAllMessageTypesCovered(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, m := range allMessages() {
		seen[m.Type()] = true
	}
	for ty := MsgType(1); ty < maxMsgType; ty++ {
		if !seen[ty] {
			t.Errorf("message type %v has no test instance", ty)
		}
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range allMessages() {
		m := m
		t.Run(m.Type().String(), func(t *testing.T) {
			data := Marshal(m)
			got, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, m)
			}
		})
	}
}

func TestRoundTripByteEquality(t *testing.T) {
	for _, m := range allMessages() {
		data := Marshal(m)
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%v: %v", m.Type(), err)
		}
		data2 := Marshal(got)
		if string(data) != string(data2) {
			t.Fatalf("%v: re-marshal differs (%d vs %d bytes)", m.Type(), len(data), len(data2))
		}
	}
}

func TestEncodedSizeMatchesMarshalledLength(t *testing.T) {
	for _, m := range allMessages() {
		if got, want := m.EncodedSize(), len(Marshal(m)); got != want {
			t.Errorf("%v: EncodedSize = %d, len(Marshal) = %d", m.Type(), got, want)
		}
	}
}

// Sealed, unsealed and decoded blocks all size and marshal exactly, and to
// the same bytes. Only a sealed or decoded block carries an encoding:
// sizing, marshalling or freezing an unsealed block never stores one.
func TestBlockEncodedSizeIsCachedAndExact(t *testing.T) {
	unsealed := testBlock(99, 5)
	sealed := SealBlock(testBlock(99, 5))
	msg := Marshal(&DeliverBlock{Block: sealed})
	dec, err := Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	decoded := dec.(*DeliverBlock).Block
	want := msg[1:] // the block body behind the type byte

	for name, b := range map[string]*ledger.Block{"sealed": sealed, "unsealed": unsealed, "decoded": decoded} {
		if s1, s2 := BlockEncodedSize(b), BlockEncodedSize(b); s1 != len(want) || s2 != s1 {
			t.Fatalf("%s: BlockEncodedSize = %d then %d, want %d", name, s1, s2, len(want))
		}
		for _, m := range []Message{&Data{Block: b, Counter: 3}, &PullData{Nonce: 8, Block: b},
			&StateResponse{Batch: NewBlockBatch([]*ledger.Block{b}).Freeze()}} {
			if out := Marshal(m); len(out) != m.EncodedSize() {
				t.Fatalf("%s %v: EncodedSize %d, Marshal %d bytes", name, m.Type(), m.EncodedSize(), len(out))
			}
		}
		if got := Marshal(&DeliverBlock{Block: b}); !bytes.Equal(got, msg) {
			t.Fatalf("%s: marshals differently from the sealed block", name)
		}
	}
	if !bytes.Equal(sealed.Encoding(), want) || !bytes.Equal(decoded.Encoding(), want) {
		t.Fatal("sealed or decoded block does not carry its canonical encoding")
	}
	if unsealed.Encoding() != nil {
		t.Fatal("encoding an unsealed block stored an encoding on it")
	}
}

// A block that went through every encoding path is collected once dropped:
// nothing process-wide holds a block or its encoding.
func TestDroppedBlockIsCollected(t *testing.T) {
	for name, mk := range map[string]func() *ledger.Block{
		"sealed":   func() *ledger.Block { return SealBlock(testBlock(11, 4)) },
		"unsealed": func() *ledger.Block { return testBlock(11, 4) },
		"decoded": func() *ledger.Block {
			m, err := Unmarshal(Marshal(&DeliverBlock{Block: testBlock(11, 4)}))
			if err != nil {
				t.Fatal(err)
			}
			return m.(*DeliverBlock).Block
		},
	} {
		collected := make(chan struct{})
		func() {
			b := mk()
			runtime.SetFinalizer(b, func(*ledger.Block) { close(collected) })
			_ = BlockEncodedSize(b)
			_ = Marshal(&Data{Block: b})
			_ = Marshal(&StateResponse{Batch: NewBlockBatch([]*ledger.Block{b}).Freeze()})
		}()
		// Finalizers run on their own goroutine after the cycle that frees
		// the object, so collect until one runs or the attempts run out.
		freed := false
		for i := 0; i < 20 && !freed; i++ {
			runtime.GC()
			select {
			case <-collected:
				freed = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !freed {
			t.Errorf("%s block was never collected after being dropped", name)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := Unmarshal([]byte{255}); err == nil {
		t.Error("unknown type accepted")
	}
	// Truncations of every valid encoding must fail, never panic.
	for _, m := range allMessages() {
		data := Marshal(m)
		for _, cut := range []int{1, len(data) / 2, len(data) - 1} {
			if cut >= len(data) {
				continue
			}
			if _, err := Unmarshal(data[:cut]); err == nil {
				t.Errorf("%v truncated to %d bytes accepted", m.Type(), cut)
			}
		}
	}
	// Trailing garbage must fail.
	data := append(Marshal(&PullHello{Nonce: 1}), 0xEE)
	if _, err := Unmarshal(data); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestUvarintLen(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 127: 1, 128: 2, 16383: 2, 16384: 3, 1 << 62: 9}
	for v, want := range cases {
		if got := uvarintLen(v); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// Property: any Alive message round-trips and sizes exactly, for arbitrary
// metadata bytes.
func TestPropertyAliveRoundTrip(t *testing.T) {
	f := func(seq uint64, meta []byte) bool {
		m := &Alive{Seq: seq, Meta: meta}
		data := Marshal(m)
		if len(data) != m.EncodedSize() {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		ga := got.(*Alive)
		return ga.Seq == seq && string(ga.Meta) == string(meta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: push digests with arbitrary offer lists round-trip exactly.
func TestPropertyPushDigestRoundTrip(t *testing.T) {
	f := func(nums []uint64, counters []uint32) bool {
		n := len(nums)
		if len(counters) < n {
			n = len(counters)
		}
		m := &PushDigest{}
		for i := 0; i < n; i++ {
			m.Offers = append(m.Offers, BlockOffer{Num: nums[i], Counter: counters[i]})
		}
		data := Marshal(m)
		if len(data) != m.EncodedSize() {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		gd := got.(*PushDigest)
		if len(gd.Offers) != len(m.Offers) {
			return false
		}
		for i := range m.Offers {
			if gd.Offers[i] != m.Offers[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random mutations of encoded bytes either decode to some message
// or fail cleanly — never panic.
func TestPropertyFuzzNoPanic(t *testing.T) {
	msgs := allMessages()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		m := msgs[rng.Intn(len(msgs))]
		data := Marshal(m)
		mutated := make([]byte, len(data))
		copy(mutated, data)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] = byte(rng.Intn(256))
		}
		_, _ = Unmarshal(mutated) // must not panic
	}
}

func TestBlockRoundTripPreservesHashesAndLinkage(t *testing.T) {
	prev := testBlock(0, 2)
	b := testBlock(1, 4)
	b.PrevHash = prev.Hash()
	b.DataHash = ledger.ComputeDataHash(b.Txs)
	got, err := Unmarshal(Marshal(&Data{Block: b, Counter: 1}))
	if err != nil {
		t.Fatal(err)
	}
	rb := got.(*Data).Block
	if rb.Hash() != b.Hash() {
		t.Fatal("block hash changed across encoding")
	}
	if err := rb.VerifyLinkage(prev); err != nil {
		t.Fatalf("decoded block fails linkage: %v", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeData.String() != "Data" || TypeRaftAppend.String() != "RaftAppend" {
		t.Error("known type names wrong")
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Error("unknown type name wrong")
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(7).String() != "n7" {
		t.Errorf("NodeID(7) = %q", NodeID(7).String())
	}
}
