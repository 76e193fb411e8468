//! The JSON text of a flat `f32` tensor: one string holding eight
//! lowercase hex digits per value, the value's IEEE-754 bits, so the text
//! of two tensors is equal exactly when their bits are. It is written
//! only; networks and optimizers travel and persist as binary records
//! ([`crate::record`]).

use serde::ser::Writer;
use serde::Serialize;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn json(values: &[f32]) -> String {
        let mut out = Writer::new();
        Slab(values.to_vec()).serialize(&mut out);
        out.into_string()
    }

    #[test]
    fn values_are_their_bits_in_hex() {
        assert_eq!(json(&[1.0, -0.0]), "\"3f80000080000000\"");
        assert_eq!(json(&[]), "\"\"");
    }
}
