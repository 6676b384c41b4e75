//! Value-transfer payloads carried by Virtual Messages.
//!
//! When a site honours a request (or proactively rebalances), the value it
//! ships rides a Vm as an encoded [`Transfer`]: a fixed
//! [`Transfer::ENCODED_LEN`]-byte big-endian image. The *same bytes* live
//! in the sender's `Created` log record, on the wire, and in the
//! receiver's acceptance path — one representation, no translation bugs.
//! Encoding builds the image on the stack and copies it into the Vm's
//! payload (its one allocation); decoding reads a borrowed slice, so the
//! receiver decodes straight out of the datagram.

use crate::clock::Ts;
use crate::item::ItemId;
use crate::Qty;
use bytes::Bytes;
use dvp_storage::DecodeError;

/// Why a transfer was shipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// Refill toward a soliciting transaction's deficit.
    Refill,
    /// Full-value grant for a read transaction (donor drained its fragment
    /// and took a read lease).
    ReadGrant,
    /// Proactive rebalancing (no requesting transaction).
    Rebalance,
}

impl TransferKind {
    fn tag(self) -> u8 {
        match self {
            TransferKind::Refill => 0,
            TransferKind::ReadGrant => 1,
            TransferKind::Rebalance => 2,
        }
    }

    fn from_tag(t: u8) -> Result<Self, DecodeError> {
        match t {
            0 => Ok(TransferKind::Refill),
            1 => Ok(TransferKind::ReadGrant),
            2 => Ok(TransferKind::Rebalance),
            _ => Err(DecodeError::Invalid("TransferKind tag")),
        }
    }
}

/// A quantity of an item's value in motion between two sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// The item whose value is moving.
    pub item: ItemId,
    /// Amount moving (may be 0 for a read grant certifying emptiness).
    pub amount: Qty,
    /// The transaction whose request provoked this transfer
    /// ([`Ts::ZERO`] for unprovoked rebalancing).
    pub for_txn: Ts,
    /// The donating site.
    pub donor: usize,
    /// Purpose.
    pub kind: TransferKind,
}

impl Transfer {
    /// Encoded size: item `u32`, amount, txn and donor `u64`s, kind tag.
    pub const ENCODED_LEN: usize = 4 + 8 + 8 + 8 + 1;

    /// Encode into the opaque payload form the Vm layer carries.
    pub fn to_bytes(&self) -> Bytes {
        let mut b = [0u8; Self::ENCODED_LEN];
        b[0..4].copy_from_slice(&self.item.0.to_be_bytes());
        b[4..12].copy_from_slice(&self.amount.to_be_bytes());
        b[12..20].copy_from_slice(&self.for_txn.0.to_be_bytes());
        b[20..28].copy_from_slice(&(self.donor as u64).to_be_bytes());
        b[28] = self.kind.tag();
        Bytes::copy_from_slice(&b)
    }

    /// Decode from a Vm payload: too short is [`DecodeError::Truncated`],
    /// a bad kind tag or bytes past the image are
    /// [`DecodeError::Invalid`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let Some(b) = bytes.get(..Self::ENCODED_LEN) else {
            return Err(DecodeError::Truncated);
        };
        let u64_at = |at: usize| u64::from_be_bytes(b[at..at + 8].try_into().expect("eight bytes"));
        let t = Transfer {
            item: ItemId(u32::from_be_bytes(b[0..4].try_into().expect("four bytes"))),
            amount: u64_at(4),
            for_txn: Ts(u64_at(12)),
            donor: u64_at(20) as usize,
            kind: TransferKind::from_tag(b[28])?,
        };
        if bytes.len() != Self::ENCODED_LEN {
            return Err(DecodeError::Invalid("trailing bytes in Transfer"));
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Transfer {
        Transfer {
            item: ItemId(3),
            amount: 5,
            for_txn: Ts(0x7777),
            donor: 2,
            kind: TransferKind::Refill,
        }
    }

    #[test]
    fn roundtrips_through_bytes() {
        let t = sample();
        let b = t.to_bytes();
        assert_eq!(Transfer::from_bytes(&b).unwrap(), t);
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [
            TransferKind::Refill,
            TransferKind::ReadGrant,
            TransferKind::Rebalance,
        ] {
            let t = Transfer { kind, ..sample() };
            assert_eq!(Transfer::from_bytes(&t.to_bytes()).unwrap(), t);
        }
    }

    #[test]
    fn zero_amount_read_grant_is_legal() {
        let t = Transfer {
            amount: 0,
            kind: TransferKind::ReadGrant,
            ..sample()
        };
        assert_eq!(Transfer::from_bytes(&t.to_bytes()).unwrap().amount, 0);
    }

    /// The exact image: `Created` log records and checkpoints hold these
    /// bytes, so the layout may not move.
    #[test]
    fn encodes_to_pinned_bytes() {
        let b = sample().to_bytes();
        assert_eq!(b.len(), Transfer::ENCODED_LEN);
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0, 0, 0, 3,                   // item
            0, 0, 0, 0, 0, 0, 0, 5,       // amount
            0, 0, 0, 0, 0, 0, 0x77, 0x77, // for_txn
            0, 0, 0, 0, 0, 0, 0, 2,       // donor
            0,                            // kind: Refill
        ];
        assert_eq!(&b[..], golden);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut raw = sample().to_bytes().to_vec();
        raw.push(0xEE);
        assert_eq!(
            Transfer::from_bytes(&raw).unwrap_err(),
            DecodeError::Invalid("trailing bytes in Transfer")
        );
    }

    #[test]
    fn truncated_rejected() {
        let raw = sample().to_bytes();
        for len in 0..Transfer::ENCODED_LEN {
            assert_eq!(
                Transfer::from_bytes(&raw[..len]).unwrap_err(),
                DecodeError::Truncated,
                "{len} bytes"
            );
        }
    }

    #[test]
    fn a_bad_kind_tag_is_refused() {
        let mut raw = sample().to_bytes().to_vec();
        raw[Transfer::ENCODED_LEN - 1] = 3;
        assert_eq!(
            Transfer::from_bytes(&raw).unwrap_err(),
            DecodeError::Invalid("TransferKind tag")
        );
    }
}
