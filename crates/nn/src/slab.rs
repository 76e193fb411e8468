//! The serialized form of a flat `f32` tensor: one JSON string holding
//! eight lowercase hex digits per value, the value's IEEE-754 bits. Every
//! value round-trips bit for bit — NaN payloads, infinities, −0.0 and
//! subnormals, which a decimal text encoding loses or normalizes.

use serde::de::{Error, Parser};
use serde::ser::Writer;
use serde::{Deserialize, Serialize};
use std::ops::{Deref, DerefMut};

/// A `Vec<f32>` that serializes as its bits (see the module docs).
#[derive(Clone, Default)]
pub(crate) struct Slab(pub(crate) Vec<f32>);

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slab({} values)", self.0.len())
    }
}

impl Deref for Slab {
    type Target = Vec<f32>;
    fn deref(&self) -> &Vec<f32> {
        &self.0
    }
}

impl DerefMut for Slab {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.0
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

impl Serialize for Slab {
    fn serialize(&self, out: &mut Writer) {
        let mut text = Vec::with_capacity(8 * self.0.len() + 2);
        text.push(b'"');
        for x in &self.0 {
            let bits = x.to_bits();
            text.extend((0..8).rev().map(|nibble| HEX[(bits >> (4 * nibble)) as usize & 0xf]));
        }
        text.push(b'"');
        out.raw(std::str::from_utf8(&text).expect("hex digits are ASCII"));
    }
}

impl Deserialize for Slab {
    fn deserialize(parser: &mut Parser<'_>) -> Result<Self, Error> {
        let text = parser.parse_string()?;
        if text.len() % 8 != 0 {
            return Err(Error::msg(format!(
                "a tensor of {} hex digits is not a whole number of 8-digit values",
                text.len()
            )));
        }
        text.as_bytes()
            .chunks_exact(8)
            .map(|digits| {
                let bits = digits.iter().try_fold(0u32, |acc, &b| Some(acc << 4 | nibble(b)?));
                bits.map(f32::from_bits)
                    .ok_or_else(|| Error::msg("a tensor value is not 8 lowercase hex digits"))
            })
            .collect::<Result<Vec<f32>, Error>>()
            .map(Slab)
    }
}

/// A lowercase hex digit's value; lowercase only, so each value has
/// exactly one encoding.
fn nibble(b: u8) -> Option<u32> {
    match b {
        b'0'..=b'9' => Some(u32::from(b - b'0')),
        b'a'..=b'f' => Some(u32::from(b - b'a') + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(values: &[f32]) -> String {
        let mut out = Writer::new();
        Slab(values.to_vec()).serialize(&mut out);
        out.into_string()
    }

    fn parse(text: &str) -> Result<Slab, Error> {
        Slab::deserialize(&mut Parser::new(text))
    }

    #[test]
    fn values_are_their_bits_in_hex() {
        assert_eq!(json(&[1.0, -0.0]), "\"3f80000080000000\"");
        assert_eq!(json(&[]), "\"\"");
        assert_eq!(parse("\"3f800000\"").unwrap().0, [1.0]);
    }

    #[test]
    fn malformed_text_is_an_error() {
        for bad in ["\"3f80000\"", "\"3F800000\"", "\"3f80000g\"", "\"+f800000\"", "[1.0]"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
