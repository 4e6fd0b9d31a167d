//! Fixture: a half-wired frame enum — `Drop` has a kind tag but no
//! encode arm and no decode arm — plus an uncapped decode allocation.

pub enum Frame {
    Hello { version: u32 },
    Query { text: String },
    Drop,
}

impl Frame {
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Query { .. } => 0x02,
            Frame::Drop => 0x03,
        }
    }
}

pub fn encode_frame_into(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Hello { version } => vec![*version as u8],
        Frame::Query { text } => text.clone().into_bytes(),
    }
}

pub fn decode_frame_traced(body: &[u8]) -> Frame {
    match body[0] {
        0x01 => Frame::Hello { version: 0 },
        0x02 => Frame::Query {
            text: String::new(),
        },
        _ => Frame::Drop,
    }
}

pub fn decode_rows(raw: u64) -> Vec<u8> {
    let count = raw as usize;
    let out = Vec::with_capacity(count);
    out
}
