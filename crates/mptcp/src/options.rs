//! Multipath TCP option codec (RFC 6824).
//!
//! All MPTCP signalling travels in TCP option kind 30; the first nibble of
//! the option payload selects a *subtype*. `smapp-tcp` carries that payload
//! opaquely (read through [`smapp_tcp::TcpView::mptcp_opts`], written with
//! [`smapp_tcp::OptionWriter`]); this module encodes and decodes it.
//!
//! The connection-level checksum (negotiated off by default in the Linux
//! kernel deployments the paper ran on) is not used, so DSS options carry
//! no checksum field. Data sequence numbers and data ACKs always use the
//! 8-byte form on encode; the 4-byte forms are accepted on decode.

use bytes::BufMut;
use smapp_sim::Addr;
use smapp_tcp::OptBytes;

/// MPTCP protocol version we speak (RFC 6824 = version 0).
pub const MPTCP_VERSION: u8 = 0;
/// `MP_CAPABLE` flag bit H: use HMAC-SHA1 (always set).
pub const CAPABLE_FLAG_HMAC_SHA1: u8 = 0x01;

/// Subtype numbers.
mod subtype {
    pub(crate) const MP_CAPABLE: u8 = 0x0;
    pub(crate) const MP_JOIN: u8 = 0x1;
    pub(crate) const DSS: u8 = 0x2;
    pub(crate) const ADD_ADDR: u8 = 0x3;
    pub(crate) const REMOVE_ADDR: u8 = 0x4;
    pub(crate) const MP_PRIO: u8 = 0x5;
    pub(crate) const MP_FAIL: u8 = 0x6;
    pub(crate) const MP_FASTCLOSE: u8 = 0x7;
}

/// The data-sequence-signal option body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Dss {
    /// Connection-level cumulative acknowledgment (data ACK).
    pub data_ack: Option<u64>,
    /// Mapping of subflow payload to the data sequence space.
    pub mapping: Option<DssMapping>,
    /// DATA_FIN: the mapping (or, alone, the data ack position) signals
    /// the end of the data stream.
    pub data_fin: bool,
}

/// One DSS mapping: `len` bytes starting at subflow-relative sequence
/// `ssn` carry data sequence numbers starting at `dsn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DssMapping {
    /// Data sequence number of the first mapped byte.
    pub dsn: u64,
    /// Relative subflow sequence number of the first mapped byte.
    pub ssn: u32,
    /// Mapped length in bytes (a DATA_FIN-only mapping may be 0).
    pub len: u16,
}

/// A decoded MPTCP option.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpOption {
    /// `MP_CAPABLE`: SYN and SYN/ACK carry one key; the third ACK carries
    /// both (sender's first).
    Capable {
        /// Protocol version (0).
        version: u8,
        /// Flag bits A–H.
        flags: u8,
        /// The sender's key.
        sender_key: u64,
        /// The receiver's key (third-ACK form only).
        receiver_key: Option<u64>,
    },
    /// `MP_JOIN` on a SYN: request to add a subflow to the connection
    /// identified by `token`.
    JoinSyn {
        /// Backup-priority bit B.
        backup: bool,
        /// Sender's address identifier.
        addr_id: u8,
        /// Receiver's connection token.
        token: u32,
        /// Sender's random nonce.
        nonce: u32,
    },
    /// `MP_JOIN` on a SYN/ACK: responder authentication.
    JoinSynAck {
        /// Backup-priority bit B.
        backup: bool,
        /// Sender's address identifier.
        addr_id: u8,
        /// Truncated (64-bit) HMAC-B.
        hmac: u64,
        /// Sender's random nonce.
        nonce: u32,
    },
    /// `MP_JOIN` on the third ACK: initiator authentication (full HMAC-A).
    JoinAck {
        /// 160-bit HMAC-A.
        hmac: [u8; 20],
    },
    /// Data sequence signal.
    Dss(Dss),
    /// Announce an additional address (+optional port).
    AddAddr {
        /// Address identifier.
        addr_id: u8,
        /// The announced IPv4-style address.
        addr: Addr,
        /// Optional port (absent = same as the connection).
        port: Option<u16>,
    },
    /// Withdraw previously announced addresses.
    RemoveAddr {
        /// Address identifiers being removed.
        addr_ids: Vec<u8>,
    },
    /// Change subflow priority (`MP_PRIO`).
    Prio {
        /// New backup-priority value.
        backup: bool,
        /// Optionally address the change to another subflow by address id.
        addr_id: Option<u8>,
    },
    /// Subflow-level failure with the failing DSN (`MP_FAIL`).
    Fail {
        /// Data sequence number that could not be handled.
        dsn: u64,
    },
    /// Abort the whole connection (`MP_FASTCLOSE`).
    FastClose {
        /// Receiver's key, proving the sender belongs to the connection.
        key: u64,
    },
}

/// Errors from [`MpOption::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpParseError {
    /// Payload empty or shorter than its subtype requires.
    Truncated,
    /// Unknown subtype nibble.
    BadSubtype(u8),
    /// Subtype recognised but the length fits no defined form.
    BadLength {
        /// The subtype in question.
        subtype: u8,
        /// The offending payload length.
        len: usize,
    },
}

impl std::fmt::Display for MpParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpParseError::Truncated => write!(f, "mptcp option truncated"),
            MpParseError::BadSubtype(s) => write!(f, "unknown mptcp subtype {s}"),
            MpParseError::BadLength { subtype, len } => {
                write!(f, "bad length {len} for mptcp subtype {subtype}")
            }
        }
    }
}

impl std::error::Error for MpParseError {}

// DSS flag bits (RFC 6824 §3.3).
const DSS_FLAG_DATA_ACK: u8 = 0x01;
const DSS_FLAG_DATA_ACK8: u8 = 0x02;
const DSS_FLAG_DSN: u8 = 0x04;
const DSS_FLAG_DSN8: u8 = 0x08;
const DSS_FLAG_DATA_FIN: u8 = 0x10;

impl MpOption {
    /// Encode to the option payload carried inside TCP option kind 30.
    ///
    /// Returns inline fixed-capacity bytes: MPTCP option bodies top out at
    /// 22 bytes (JoinAck), well under the 38-byte [`OptBytes`] limit, so
    /// encoding allocates nothing.
    pub fn encode(&self) -> OptBytes {
        let mut b = OptBytes::new();
        match self {
            MpOption::Capable {
                version,
                flags,
                sender_key,
                receiver_key,
            } => {
                b.put_u8(subtype::MP_CAPABLE << 4 | (version & 0x0F));
                b.put_u8(*flags);
                b.put_u64(*sender_key);
                if let Some(rk) = receiver_key {
                    b.put_u64(*rk);
                }
            }
            MpOption::JoinSyn {
                backup,
                addr_id,
                token,
                nonce,
            } => {
                b.put_u8(subtype::MP_JOIN << 4 | (*backup as u8));
                b.put_u8(*addr_id);
                b.put_u32(*token);
                b.put_u32(*nonce);
            }
            MpOption::JoinSynAck {
                backup,
                addr_id,
                hmac,
                nonce,
            } => {
                b.put_u8(subtype::MP_JOIN << 4 | (*backup as u8));
                b.put_u8(*addr_id);
                b.put_u64(*hmac);
                b.put_u32(*nonce);
            }
            MpOption::JoinAck { hmac } => {
                b.put_u8(subtype::MP_JOIN << 4);
                b.put_u8(0);
                b.put_slice(hmac);
            }
            MpOption::Dss(dss) => {
                let mut flags = 0u8;
                if dss.data_ack.is_some() {
                    flags |= DSS_FLAG_DATA_ACK | DSS_FLAG_DATA_ACK8;
                }
                if dss.mapping.is_some() {
                    flags |= DSS_FLAG_DSN | DSS_FLAG_DSN8;
                }
                if dss.data_fin {
                    flags |= DSS_FLAG_DATA_FIN;
                }
                b.put_u8(subtype::DSS << 4);
                b.put_u8(flags);
                if let Some(ack) = dss.data_ack {
                    b.put_u64(ack);
                }
                if let Some(m) = dss.mapping {
                    b.put_u64(m.dsn);
                    b.put_u32(m.ssn);
                    b.put_u16(m.len);
                    // No checksum: not negotiated.
                }
            }
            MpOption::AddAddr {
                addr_id,
                addr,
                port,
            } => {
                // IPVer nibble = 4.
                b.put_u8(subtype::ADD_ADDR << 4 | 4);
                b.put_u8(*addr_id);
                b.put_u32(addr.0);
                if let Some(p) = port {
                    b.put_u16(*p);
                }
            }
            MpOption::RemoveAddr { addr_ids } => {
                b.put_u8(subtype::REMOVE_ADDR << 4);
                for id in addr_ids {
                    b.put_u8(*id);
                }
            }
            MpOption::Prio { backup, addr_id } => {
                b.put_u8(subtype::MP_PRIO << 4 | (*backup as u8));
                if let Some(id) = addr_id {
                    b.put_u8(*id);
                }
            }
            MpOption::Fail { dsn } => {
                b.put_u8(subtype::MP_FAIL << 4);
                b.put_u8(0);
                b.put_u64(*dsn);
            }
            MpOption::FastClose { key } => {
                b.put_u8(subtype::MP_FASTCLOSE << 4);
                b.put_u8(0);
                b.put_u64(*key);
            }
        }
        b
    }

    /// Decode from the payload of TCP option kind 30.
    pub fn decode(p: &[u8]) -> Result<MpOption, MpParseError> {
        if p.is_empty() {
            return Err(MpParseError::Truncated);
        }
        let st = p[0] >> 4;
        let low = p[0] & 0x0F;
        match st {
            subtype::MP_CAPABLE => match p.len() {
                10 | 18 => Ok(MpOption::Capable {
                    version: low,
                    flags: p[1],
                    sender_key: be64(&p[2..10]),
                    receiver_key: (p.len() == 18).then(|| be64(&p[10..18])),
                }),
                l => Err(MpParseError::BadLength {
                    subtype: st,
                    len: l,
                }),
            },
            subtype::MP_JOIN => match p.len() {
                10 => Ok(MpOption::JoinSyn {
                    backup: low & 1 != 0,
                    addr_id: p[1],
                    token: be32(&p[2..6]),
                    nonce: be32(&p[6..10]),
                }),
                14 => Ok(MpOption::JoinSynAck {
                    backup: low & 1 != 0,
                    addr_id: p[1],
                    hmac: be64(&p[2..10]),
                    nonce: be32(&p[10..14]),
                }),
                22 => Ok(MpOption::JoinAck {
                    hmac: p[2..22].try_into().expect("length checked"),
                }),
                l => Err(MpParseError::BadLength {
                    subtype: st,
                    len: l,
                }),
            },
            subtype::DSS => {
                if p.len() < 2 {
                    return Err(MpParseError::Truncated);
                }
                let flags = p[1];
                let mut i = 2usize;
                let mut dss = Dss {
                    data_fin: flags & DSS_FLAG_DATA_FIN != 0,
                    ..Default::default()
                };
                if flags & DSS_FLAG_DATA_ACK != 0 {
                    let w = if flags & DSS_FLAG_DATA_ACK8 != 0 {
                        8
                    } else {
                        4
                    };
                    if p.len() < i + w {
                        return Err(MpParseError::Truncated);
                    }
                    dss.data_ack = Some(if w == 8 {
                        be64(&p[i..i + 8])
                    } else {
                        be32(&p[i..i + 4]) as u64
                    });
                    i += w;
                }
                if flags & DSS_FLAG_DSN != 0 {
                    let w = if flags & DSS_FLAG_DSN8 != 0 { 8 } else { 4 };
                    if p.len() < i + w + 6 {
                        return Err(MpParseError::Truncated);
                    }
                    let dsn = if w == 8 {
                        be64(&p[i..i + 8])
                    } else {
                        be32(&p[i..i + 4]) as u64
                    };
                    i += w;
                    let ssn = be32(&p[i..i + 4]);
                    let len = u16::from_be_bytes([p[i + 4], p[i + 5]]);
                    dss.mapping = Some(DssMapping { dsn, ssn, len });
                }
                Ok(MpOption::Dss(dss))
            }
            subtype::ADD_ADDR => match p.len() {
                6 | 8 => Ok(MpOption::AddAddr {
                    addr_id: p[1],
                    addr: Addr(be32(&p[2..6])),
                    port: (p.len() == 8).then(|| u16::from_be_bytes([p[6], p[7]])),
                }),
                l => Err(MpParseError::BadLength {
                    subtype: st,
                    len: l,
                }),
            },
            subtype::REMOVE_ADDR => {
                if p.len() < 2 {
                    return Err(MpParseError::Truncated);
                }
                Ok(MpOption::RemoveAddr {
                    addr_ids: Vec::from(&p[1..]),
                })
            }
            subtype::MP_PRIO => match p.len() {
                1 => Ok(MpOption::Prio {
                    backup: low & 1 != 0,
                    addr_id: None,
                }),
                2 => Ok(MpOption::Prio {
                    backup: low & 1 != 0,
                    addr_id: Some(p[1]),
                }),
                l => Err(MpParseError::BadLength {
                    subtype: st,
                    len: l,
                }),
            },
            subtype::MP_FAIL => {
                if p.len() != 10 {
                    return Err(MpParseError::BadLength {
                        subtype: st,
                        len: p.len(),
                    });
                }
                Ok(MpOption::Fail {
                    dsn: be64(&p[2..10]),
                })
            }
            subtype::MP_FASTCLOSE => {
                if p.len() != 10 {
                    return Err(MpParseError::BadLength {
                        subtype: st,
                        len: p.len(),
                    });
                }
                Ok(MpOption::FastClose {
                    key: be64(&p[2..10]),
                })
            }
            other => Err(MpParseError::BadSubtype(other)),
        }
    }
}

fn be32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

fn be64(b: &[u8]) -> u64 {
    u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(opt: MpOption) {
        let enc = opt.encode();
        let dec = MpOption::decode(&enc).unwrap();
        assert_eq!(dec, opt);
    }

    #[test]
    fn capable_forms() {
        roundtrip(MpOption::Capable {
            version: 0,
            flags: CAPABLE_FLAG_HMAC_SHA1,
            sender_key: 0x1122_3344_5566_7788,
            receiver_key: None,
        });
        roundtrip(MpOption::Capable {
            version: 0,
            flags: CAPABLE_FLAG_HMAC_SHA1,
            sender_key: 1,
            receiver_key: Some(2),
        });
    }

    #[test]
    fn join_forms() {
        roundtrip(MpOption::JoinSyn {
            backup: true,
            addr_id: 2,
            token: 0xCAFE_BABE,
            nonce: 42,
        });
        roundtrip(MpOption::JoinSynAck {
            backup: false,
            addr_id: 3,
            hmac: 0xDEAD_BEEF_0BAD_F00D,
            nonce: 7,
        });
        roundtrip(MpOption::JoinAck { hmac: [9; 20] });
    }

    #[test]
    fn dss_forms() {
        roundtrip(MpOption::Dss(Dss {
            data_ack: Some(123_456_789_000),
            mapping: None,
            data_fin: false,
        }));
        roundtrip(MpOption::Dss(Dss {
            data_ack: None,
            mapping: Some(DssMapping {
                dsn: 99,
                ssn: 7,
                len: 1400,
            }),
            data_fin: false,
        }));
        roundtrip(MpOption::Dss(Dss {
            data_ack: Some(5),
            mapping: Some(DssMapping {
                dsn: 1,
                ssn: 2,
                len: 0,
            }),
            data_fin: true,
        }));
    }

    #[test]
    fn dss_decodes_short_forms() {
        // Hand-built DSS with 4-byte data ack and 4-byte DSN.
        let mut p = vec![subtype::DSS << 4, DSS_FLAG_DATA_ACK | DSS_FLAG_DSN];
        p.extend_from_slice(&0x0A0B0C0Du32.to_be_bytes()); // data ack
        p.extend_from_slice(&0x01020304u32.to_be_bytes()); // dsn
        p.extend_from_slice(&7u32.to_be_bytes()); // ssn
        p.extend_from_slice(&100u16.to_be_bytes()); // len
        let got = MpOption::decode(&p).unwrap();
        assert_eq!(
            got,
            MpOption::Dss(Dss {
                data_ack: Some(0x0A0B0C0D),
                mapping: Some(DssMapping {
                    dsn: 0x01020304,
                    ssn: 7,
                    len: 100
                }),
                data_fin: false,
            })
        );
    }

    #[test]
    fn addr_options() {
        roundtrip(MpOption::AddAddr {
            addr_id: 5,
            addr: Addr::new(10, 0, 2, 1),
            port: None,
        });
        roundtrip(MpOption::AddAddr {
            addr_id: 5,
            addr: Addr::new(10, 0, 2, 1),
            port: Some(8080),
        });
        roundtrip(MpOption::RemoveAddr {
            addr_ids: vec![1, 2, 3],
        });
    }

    #[test]
    fn prio_fail_fastclose() {
        roundtrip(MpOption::Prio {
            backup: true,
            addr_id: None,
        });
        roundtrip(MpOption::Prio {
            backup: false,
            addr_id: Some(9),
        });
        roundtrip(MpOption::Fail {
            dsn: 0xFFFF_0000_1111,
        });
        roundtrip(MpOption::FastClose { key: 0xABCD });
    }

    #[test]
    fn decode_errors() {
        assert_eq!(MpOption::decode(&[]), Err(MpParseError::Truncated));
        assert_eq!(
            MpOption::decode(&[0x80, 0]),
            Err(MpParseError::BadSubtype(8))
        );
        assert_eq!(
            MpOption::decode(&[0x00, 0, 1]),
            Err(MpParseError::BadLength { subtype: 0, len: 3 })
        );
        // DSS claiming a mapping but truncated.
        assert_eq!(
            MpOption::decode(&[subtype::DSS << 4, DSS_FLAG_DSN | DSS_FLAG_DSN8, 0, 0]),
            Err(MpParseError::Truncated)
        );
    }

    #[test]
    fn join_syn_roundtrips_through_tcp_option() {
        // Full path: MpOption -> TcpOption::Mptcp -> TCP wire -> back.
        use smapp_tcp::{TcpHeader, TcpOption, TcpSegment};
        let mp = MpOption::JoinSyn {
            backup: false,
            addr_id: 1,
            token: 0x1234_5678,
            nonce: 0x9ABC_DEF0,
        };
        let seg = TcpSegment {
            hdr: TcpHeader {
                options: smapp_tcp::TcpOptions::from([TcpOption::Mptcp(mp.encode())]),
                ..Default::default()
            },
            payload: bytes::Bytes::new(),
        };
        let wire = seg.encode().unwrap();
        let back = TcpSegment::decode(&wire).unwrap();
        let opt = back.mptcp_opt().unwrap();
        assert_eq!(MpOption::decode(opt).unwrap(), mp);
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;

    fn arb_option() -> impl Strategy<Value = MpOption> {
        prop_oneof![
            (
                any::<u8>(),
                any::<u64>(),
                proptest::option::of(any::<u64>())
            )
                .prop_map(|(flags, sk, rk)| MpOption::Capable {
                    version: 0,
                    flags,
                    sender_key: sk,
                    receiver_key: rk,
                }),
            (any::<bool>(), any::<u8>(), any::<u32>(), any::<u32>()).prop_map(
                |(backup, addr_id, token, nonce)| MpOption::JoinSyn {
                    backup,
                    addr_id,
                    token,
                    nonce,
                }
            ),
            (any::<bool>(), any::<u8>(), any::<u64>(), any::<u32>()).prop_map(
                |(backup, addr_id, hmac, nonce)| MpOption::JoinSynAck {
                    backup,
                    addr_id,
                    hmac,
                    nonce,
                }
            ),
            any::<[u8; 20]>().prop_map(|hmac| MpOption::JoinAck { hmac }),
            (
                proptest::option::of(any::<u64>()),
                proptest::option::of((any::<u64>(), any::<u32>(), any::<u16>())),
                any::<bool>()
            )
                .prop_map(|(ack, map, fin)| MpOption::Dss(Dss {
                    data_ack: ack,
                    mapping: map.map(|(dsn, ssn, len)| DssMapping { dsn, ssn, len }),
                    data_fin: fin,
                })),
            (
                any::<u8>(),
                any::<u32>(),
                proptest::option::of(any::<u16>())
            )
                .prop_map(|(addr_id, a, port)| MpOption::AddAddr {
                    addr_id,
                    addr: Addr(a),
                    port,
                }),
            proptest::collection::vec(any::<u8>(), 1..8)
                .prop_map(|addr_ids| MpOption::RemoveAddr { addr_ids }),
            (any::<bool>(), proptest::option::of(any::<u8>()))
                .prop_map(|(backup, addr_id)| MpOption::Prio { backup, addr_id }),
            any::<u64>().prop_map(|dsn| MpOption::Fail { dsn }),
            any::<u64>().prop_map(|key| MpOption::FastClose { key }),
        ]
    }

    proptest! {
        #[test]
        fn roundtrip(opt in arb_option()) {
            let enc = opt.encode();
            prop_assert_eq!(MpOption::decode(&enc).unwrap(), opt);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
            let _ = MpOption::decode(&bytes);
        }
    }
}
