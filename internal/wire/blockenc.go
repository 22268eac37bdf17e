package wire

import (
	"fabricgossip/internal/ledger"
)

// encodeBlock writes the full canonical encoding of a block.
func encodeBlock(s sink, b *ledger.Block) {
	s.uvarint(b.Num)
	putDigest(s, b.PrevHash)
	putDigest(s, b.DataHash)
	putBytes(s, b.Sig)
	s.uvarint(uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		encodeTx(s, tx)
	}
}

func encodeTx(s sink, tx *ledger.Transaction) {
	putDigest(s, tx.ID)
	putString(s, tx.Client)
	putString(s, tx.Chaincode)
	s.uvarint(uint64(len(tx.RWSet.Reads)))
	for _, r := range tx.RWSet.Reads {
		putString(s, r.Key)
		s.uvarint(r.Version.BlockNum)
		s.uvarint(uint64(r.Version.TxNum))
	}
	s.uvarint(uint64(len(tx.RWSet.Writes)))
	for _, w := range tx.RWSet.Writes {
		putString(s, w.Key)
		putBytes(s, w.Value)
	}
	s.uvarint(uint64(len(tx.Endorsements)))
	for _, e := range tx.Endorsements {
		putString(s, e.Org)
		putString(s, e.Name)
		putBytes(s, e.Sig)
	}
	putBytes(s, tx.Payload)
}

// decodeBlock reads one block and seals it. The seal is a fresh canonical
// encoding, not the bytes just read: a non-minimal varint, or a transaction
// index wider than its uint32 field, decodes to a block whose canonical
// encoding differs from the input.
func decodeBlock(d *decoder) *ledger.Block {
	b := decodeBlockFields(d)
	if d.err == nil {
		SealBlock(b)
	}
	return b
}

func decodeBlockFields(d *decoder) *ledger.Block {
	b := &ledger.Block{}
	b.Num = d.uvarint("block num")
	b.PrevHash = d.digest("prev hash")
	b.DataHash = d.digest("data hash")
	b.Sig = d.bytesField("block sig")
	n := d.uvarint("tx count")
	if d.err != nil {
		return b
	}
	if n > uint64(len(d.buf)) {
		d.fail("tx count")
		return b
	}
	b.Txs = make([]*ledger.Transaction, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		b.Txs = append(b.Txs, decodeTx(d))
	}
	return b
}

func decodeTx(d *decoder) *ledger.Transaction {
	tx := &ledger.Transaction{}
	tx.ID = d.digest("tx id")
	tx.Client = d.str("client")
	tx.Chaincode = d.str("chaincode")
	nr := d.uvarint("read count")
	if d.err != nil {
		return tx
	}
	if nr > uint64(len(d.buf)) {
		d.fail("read count")
		return tx
	}
	for i := uint64(0); i < nr && d.err == nil; i++ {
		r := ledger.KVRead{Key: d.str("read key")}
		r.Version.BlockNum = d.uvarint("read block")
		r.Version.TxNum = uint32(d.uvarint("read tx"))
		tx.RWSet.Reads = append(tx.RWSet.Reads, r)
	}
	nw := d.uvarint("write count")
	if d.err != nil {
		return tx
	}
	if nw > uint64(len(d.buf)) {
		d.fail("write count")
		return tx
	}
	for i := uint64(0); i < nw && d.err == nil; i++ {
		w := ledger.KVWrite{Key: d.str("write key")}
		w.Value = d.bytesField("write value")
		tx.RWSet.Writes = append(tx.RWSet.Writes, w)
	}
	ne := d.uvarint("endorsement count")
	if d.err != nil {
		return tx
	}
	if ne > uint64(len(d.buf)) {
		d.fail("endorsement count")
		return tx
	}
	for i := uint64(0); i < ne && d.err == nil; i++ {
		e := ledger.Endorsement{Org: d.str("endorser org"), Name: d.str("endorser name")}
		e.Sig = d.bytesField("endorsement sig")
		tx.Endorsements = append(tx.Endorsements, e)
	}
	tx.Payload = d.bytesField("payload")
	return tx
}

// SealBlock computes b's canonical encoding and records it on the block
// (ledger.Block.SetEncoding), so every later size query, marshal and frozen
// batch reads those bytes instead of walking the block. The block's creator
// calls it once, after the last field is set and before the block is
// shared; it returns b.
func SealBlock(b *ledger.Block) *ledger.Block {
	b.SetEncoding(blockEncoding(b))
	return b
}

// BlockEncodedSize returns the exact encoded length of b: the sealed
// encoding's length, or a counting walk for a block nobody sealed.
func BlockEncodedSize(b *ledger.Block) int {
	if enc := b.Encoding(); enc != nil {
		return len(enc)
	}
	c := &countSink{}
	encodeBlock(c, b)
	return c.n
}

// blockEncoding returns b's canonical encoding: the sealed bytes, shared by
// every caller, or a fresh unshared encoding of an unsealed block. Callers
// must treat the returned slice as immutable.
func blockEncoding(b *ledger.Block) []byte {
	if enc := b.Encoding(); enc != nil {
		return enc
	}
	s := &bufSink{buf: make([]byte, 0, BlockEncodedSize(b))}
	encodeBlock(s, b)
	return s.buf
}

// putBlock writes b's canonical encoding: the sealed bytes verbatim, or a
// walk of an unsealed block. Both produce identical bytes.
func putBlock(s sink, b *ledger.Block) {
	if enc := b.Encoding(); enc != nil {
		s.bytes(enc)
		return
	}
	encodeBlock(s, b)
}
