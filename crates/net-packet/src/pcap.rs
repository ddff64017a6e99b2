//! Classic libpcap file format (`LINKTYPE_RAW` = 101, i.e. raw IPv4/IPv6).
//!
//! Traces written here open in tcpdump/Wireshark, and real captures using
//! the raw link type can be ingested in place of synthetic traffic. Only the
//! classic (non-ng) little-endian format is produced; both byte orders and
//! microsecond/nanosecond precision are accepted on read.
//!
//! Reading runs an inline [`Reassembler`]: IPv4 fragment records are not
//! skipped but collected, and each datagram that completes is emitted as a
//! single packet (carrying [`crate::ReassemblyInfo`]) at the position of
//! its completing fragment — so a fragmented flow yields exactly the
//! packets an end host would deliver, in arrival order.

use crate::{Packet, Reassembler};
use std::io::{self, Read, Write};

const MAGIC_LE_US: u32 = 0xa1b2c3d4;
const MAGIC_BE_US: u32 = 0xd4c3b2a1;
const MAGIC_LE_NS: u32 = 0xa1b23c4d;
const MAGIC_BE_NS: u32 = 0x4d3cb2a1;
/// Raw IP link type: packet begins directly with the IP header.
pub const LINKTYPE_RAW: u32 = 101;

/// Errors from pcap reading.
#[derive(Debug)]
pub enum PcapError {
    Io(io::Error),
    /// Magic number is not a known pcap magic.
    BadMagic(u32),
    /// Link type other than `LINKTYPE_RAW`.
    UnsupportedLinkType(u32),
    /// A packet record was truncated.
    Truncated,
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a pcap file (magic {m:#010x})"),
            PcapError::UnsupportedLinkType(lt) => write!(f, "unsupported link type {lt}"),
            PcapError::Truncated => write!(f, "truncated packet record"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

fn write_header<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(&MAGIC_LE_US.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // major
    w.write_all(&4u16.to_le_bytes())?; // minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&65535u32.to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_RAW.to_le_bytes())
}

fn write_record<W: Write>(w: &mut W, timestamp: f64, data: &[u8]) -> io::Result<()> {
    let secs = timestamp.floor() as u32;
    let usecs = ((timestamp - timestamp.floor()) * 1e6).round() as u32;
    w.write_all(&secs.to_le_bytes())?;
    w.write_all(&usecs.to_le_bytes())?;
    w.write_all(&(data.len() as u32).to_le_bytes())?;
    w.write_all(&(data.len() as u32).to_le_bytes())?;
    w.write_all(data)
}

/// Writes packets as a classic little-endian microsecond pcap stream.
pub fn write_pcap<W: Write>(mut w: W, packets: &[Packet]) -> io::Result<()> {
    write_header(&mut w)?;
    for p in packets {
        write_record(&mut w, p.timestamp, &p.to_bytes())?;
    }
    Ok(())
}

/// Writes raw IP records — bytes that need not parse as whole transport
/// packets, e.g. the output of [`crate::fragment_datagram`] — as a classic
/// pcap stream. `records` pairs each timestamp with its raw datagram.
pub fn write_pcap_raw<W: Write>(mut w: W, records: &[(f64, Vec<u8>)]) -> io::Result<()> {
    write_header(&mut w)?;
    for (ts, data) in records {
        write_record(&mut w, *ts, data)?;
    }
    Ok(())
}

/// A classic pcap stream positioned after its validated global header.
struct Records<R> {
    r: R,
    big_endian: bool,
    ns: bool,
}

impl<R: Read> Records<R> {
    /// Reads the global header: accepts either byte order and either
    /// timestamp precision, and only the `LINKTYPE_RAW` link type.
    fn open(mut r: R) -> Result<Self, PcapError> {
        let mut header = [0u8; 24];
        r.read_exact(&mut header)?;
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let (big_endian, ns) = match magic {
            MAGIC_LE_US => (false, false),
            MAGIC_LE_NS => (false, true),
            MAGIC_BE_US => (true, false),
            MAGIC_BE_NS => (true, true),
            other => return Err(PcapError::BadMagic(other)),
        };
        let records = Records { r, big_endian, ns };
        let linktype = records.u32_at(&header[20..24]);
        if linktype != LINKTYPE_RAW {
            return Err(PcapError::UnsupportedLinkType(linktype));
        }
        Ok(records)
    }

    fn u32_at(&self, b: &[u8]) -> u32 {
        let b = [b[0], b[1], b[2], b[3]];
        if self.big_endian {
            u32::from_be_bytes(b)
        } else {
            u32::from_le_bytes(b)
        }
    }

    /// Reads the next record's bytes into `data` and returns its
    /// timestamp, or `None` at end of stream. The record header's
    /// `caplen` is attacker-controlled, so nothing is reserved from it:
    /// `data` grows only with the bytes actually present, and a record
    /// shorter than its `caplen` is [`PcapError::Truncated`].
    fn next(&mut self, data: &mut Vec<u8>) -> Result<Option<f64>, PcapError> {
        let mut rec = [0u8; 16];
        match self.r.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let secs = self.u32_at(&rec[0..4]) as f64;
        let frac = self.u32_at(&rec[4..8]) as f64;
        let caplen = self.u32_at(&rec[8..12]);
        data.clear();
        self.r
            .by_ref()
            .take(u64::from(caplen))
            .read_to_end(data)
            .map_err(|_| PcapError::Truncated)?;
        if data.len() != caplen as usize {
            return Err(PcapError::Truncated);
        }
        Ok(Some(secs + frac / if self.ns { 1e9 } else { 1e6 }))
    }
}

/// Reads a pcap stream produced by [`write_pcap`] (or any `LINKTYPE_RAW`
/// classic pcap). IPv4 fragments are reassembled inline (see the module
/// docs); records that still fail parsing (unsupported protocols in a real
/// capture, incomplete fragment trains) are skipped rather than failing
/// the whole file.
pub fn read_pcap<R: Read>(r: R) -> Result<Vec<Packet>, PcapError> {
    let mut records = Records::open(r)?;
    let mut packets = Vec::new();
    // Built at the first fragment: most captures never need one.
    let mut reassembler = None;
    let mut data = Vec::new();
    while let Some(ts) = records.next(&mut data)? {
        match Packet::from_bytes(ts, &data) {
            Ok(p) => packets.push(p),
            Err(crate::wire::ParseError::Fragment { .. }) => {
                let reassembler = reassembler.get_or_insert_with(Reassembler::new);
                if let Some(p) = reassembler.push(ts, &data) {
                    packets.push(p);
                }
            }
            Err(_) => {}
        }
    }
    Ok(packets)
}

/// Reads a `LINKTYPE_RAW` classic pcap as raw records — each timestamp
/// paired with the undecoded capture bytes, in file order, with no
/// parsing, reassembly or skipping. The inverse of [`write_pcap_raw`],
/// and the input for byte-level capture views (hexdumps, frame-length
/// audits) that must show exactly what is on disk, including records
/// [`read_pcap`] would reassemble or drop.
pub fn read_pcap_raw<R: Read>(r: R) -> Result<Vec<(f64, Vec<u8>)>, PcapError> {
    let mut records = Records::open(r)?;
    let mut out = Vec::new();
    let mut data = Vec::new();
    while let Some(ts) = records.next(&mut data)? {
        out.push((ts, data.clone()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fragment_datagram, Ipv4Header, TcpFlags, TcpHeader};
    use std::net::Ipv4Addr;

    fn sample(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let ip =
                    Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 64);
                let mut tcp = TcpHeader::new(1234, 80, i as u32 * 100, 0);
                tcp.flags = TcpFlags::ACK;
                Packet::new(i as f64 * 0.001 + 1000.0, ip, tcp, vec![i as u8; i % 7])
            })
            .collect()
    }

    #[test]
    fn round_trip() {
        let pkts = sample(5);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &pkts).unwrap();
        let back = read_pcap(&buf[..]).unwrap();
        assert_eq!(back.len(), 5);
        for (a, b) in pkts.iter().zip(&back) {
            assert_eq!(a.ip, b.ip);
            assert_eq!(a.tcp(), b.tcp());
            assert_eq!(a.payload, b.payload);
            assert!((a.timestamp - b.timestamp).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_file_round_trips() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[]).unwrap();
        assert!(read_pcap(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        assert!(matches!(read_pcap(&buf[..]), Err(PcapError::BadMagic(0))));
    }

    #[test]
    fn wrong_linktype_rejected() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &[]).unwrap();
        buf[20] = 1; // LINKTYPE_ETHERNET
        assert!(matches!(
            read_pcap(&buf[..]),
            Err(PcapError::UnsupportedLinkType(1))
        ));
    }

    #[test]
    fn truncated_record_detected() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &sample(1)).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_pcap(&buf[..]), Err(PcapError::Truncated)));
    }

    /// Regression (PR 9): a fragmented datagram in a capture used to decode
    /// as N garbage packets (phantom flows); now it reads back as ONE
    /// reassembled packet.
    #[test]
    fn protocol_fragmented_capture_reads_as_one_packet() {
        let mut ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(10, 0, 0, 2), 64);
        ip.identification = 0x4242;
        let mut tcp = TcpHeader::new(50000, 80, 1, 1);
        tcp.flags = TcpFlags::ACK | TcpFlags::PSH;
        let p = Packet::new(1000.0, ip, tcp, vec![7u8; 96]);
        let frags = fragment_datagram(&p.to_bytes(), 40);
        assert!(frags.len() > 1);
        let records: Vec<(f64, Vec<u8>)> = frags
            .into_iter()
            .enumerate()
            .map(|(i, f)| (1000.0 + i as f64 * 0.001, f))
            .collect();
        let mut buf = Vec::new();
        write_pcap_raw(&mut buf, &records).unwrap();
        let back = read_pcap(&buf[..]).unwrap();
        assert_eq!(back.len(), 1, "one datagram, not one flow per fragment");
        assert_eq!(back[0].payload, p.payload);
        assert_eq!(back[0].tcp().src_port, 50000);
        assert!(back[0].reassembly.is_some());
        assert!(back[0].transport_checksum_valid());
    }

    /// Raw reads return every record byte-for-byte, fragments included —
    /// no reassembly, no skipping.
    #[test]
    fn raw_read_preserves_records_verbatim() {
        let pkts = sample(3);
        let mut buf = Vec::new();
        write_pcap(&mut buf, &pkts).unwrap();
        let raw = read_pcap_raw(&buf[..]).unwrap();
        assert_eq!(raw.len(), 3);
        for (p, (ts, bytes)) in pkts.iter().zip(&raw) {
            assert!((p.timestamp - ts).abs() < 1e-5);
            assert_eq!(&p.to_bytes(), bytes);
        }

        // A fragment train stays N raw records where read_pcap yields 1.
        let ip = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(10, 0, 0, 2), 64);
        let mut tcp = TcpHeader::new(50000, 80, 1, 1);
        tcp.flags = TcpFlags::ACK;
        let p = Packet::new(1000.0, ip, tcp, vec![7u8; 96]);
        let frags = fragment_datagram(&p.to_bytes(), 40);
        let records: Vec<(f64, Vec<u8>)> = frags.into_iter().map(|f| (1000.0, f)).collect();
        let mut buf = Vec::new();
        write_pcap_raw(&mut buf, &records).unwrap();
        let raw = read_pcap_raw(&buf[..]).unwrap();
        assert_eq!(raw.len(), records.len());
        assert_eq!(raw, records);
        assert_eq!(read_pcap(&buf[..]).unwrap().len(), 1);
    }

    #[test]
    fn raw_read_detects_truncation() {
        let mut buf = Vec::new();
        write_pcap(&mut buf, &sample(1)).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_pcap_raw(&buf[..]), Err(PcapError::Truncated)));
    }
}
