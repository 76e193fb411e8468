//! The binary record of a network and of its optimizer: the one writer
//! and reader of a network's widths and parameter slab, shared by the
//! dist wire format and the checkpoint file.
//!
//! ```text
//! network: n_layers u32
//!          | per layer: rows u32, cols u32, rows·cols weights, cols biases
//! ```
//!
//! The weights and biases of the layers, in order, are the
//! `[W0|b0|W1|b1|…]` slab (see [`crate::mlp::Mlp`]); each layer's `rows`
//! is the previous layer's `cols`. [`Mlp::write_record`] puts one
//! activation byte in front of it; [`Adam::write_record`] writes the step
//! count and the two moment slabs. Every value is little-endian and every
//! float is its IEEE-754 bits, so NaN payloads, infinities, −0.0 and
//! subnormals come back bit for bit.
//!
//! Readers check each count against the bytes that remain before they
//! allocate anything for it, so a hostile count costs an error, never
//! memory. Errors are messages; the caller adds its context.
//!
//! [`Mlp::write_record`]: crate::mlp::Mlp::write_record
//! [`Adam::write_record`]: crate::adam::Adam::write_record

/// A bounds-checked little-endian cursor over record bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// The bytes not yet read.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// When fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(format!("needs {n} more bytes but {} remain", self.rest.len()));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// When no byte remains.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// When fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// When fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// The bytes of `n` values of `width` bytes each.
    ///
    /// # Errors
    ///
    /// When the count overflows or fewer bytes remain.
    pub fn values(&mut self, n: usize, width: usize) -> Result<&'a [u8], String> {
        self.take(n.checked_mul(width).ok_or_else(overflow)?)
    }

    /// Appends `n` floats to `out`.
    ///
    /// # Errors
    ///
    /// When fewer than `4 n` bytes remain; `out` is then unchanged.
    pub fn f32s(&mut self, n: usize, out: &mut Vec<f32>) -> Result<(), String> {
        extend_f32s(out, self.values(n, 4)?);
        Ok(())
    }

    /// A `u32` count followed by that many floats.
    ///
    /// # Errors
    ///
    /// When the floats the count names do not follow; nothing is
    /// allocated then.
    pub fn slab(&mut self) -> Result<Vec<f32>, String> {
        let n = self.u32()? as usize;
        let mut out = Vec::new();
        self.f32s(n, &mut out)?;
        Ok(out)
    }

    /// Succeeds when every byte was read.
    ///
    /// # Errors
    ///
    /// Names the count of trailing bytes.
    pub fn finish(self) -> Result<(), String> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.rest.len()))
        }
    }
}

/// The error of a count whose byte size does not fit `usize`.
pub fn overflow() -> String {
    "count overflows".into()
}

/// Appends `values` as their little-endian bits: one `resize` of `out`,
/// then a fixed-width copy per value.
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let at = out.len();
    out.resize(at + 4 * values.len(), 0);
    for (dst, v) in out[at..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Appends a `u32` count and then `values` (the form [`Reader::slab`]
/// reads).
///
/// # Panics
///
/// If the count does not fit `u32`.
pub fn put_slab(out: &mut Vec<u8>, values: &[f32]) {
    let n = u32::try_from(values.len()).expect("a slab's length fits u32");
    out.extend_from_slice(&n.to_le_bytes());
    put_f32s(out, values);
}

/// Appends one network record: the layer count, then per layer its
/// `(rows, cols)` shape and its `rows·cols` weights and `cols` biases, which
/// `slab` holds in layer order (the `[W0|b0|…]` layout).
///
/// # Panics
///
/// If `slab` is shorter than the shapes lay out, or a count does not fit
/// the record's `u32`.
pub fn write_net(
    out: &mut Vec<u8>,
    shapes: impl ExactSizeIterator<Item = (usize, usize)>,
    slab: &[f32],
) {
    let fit = |n: usize| u32::try_from(n).expect("a network count fits u32");
    out.extend_from_slice(&fit(shapes.len()).to_le_bytes());
    let mut rest = slab;
    for (rows, cols) in shapes {
        out.extend_from_slice(&fit(rows).to_le_bytes());
        out.extend_from_slice(&fit(cols).to_le_bytes());
        let (layer, tail) = rest.split_at(rows * cols + cols);
        put_f32s(out, layer);
        rest = tail;
    }
}

/// Reads one network record, calling `layer(rows, cols, values)` for
/// each layer in order with the raw bytes of its `rows·cols` weights and
/// `cols` biases. Each layer's count is checked against the bytes that
/// remain before `layer` sees it. Returns the layer count.
///
/// # Errors
///
/// A count that overflows or that the bytes do not back, or the first
/// error `layer` returns.
pub fn read_net<'a>(
    r: &mut Reader<'a>,
    mut layer: impl FnMut(u32, u32, &'a [u8]) -> Result<(), String>,
) -> Result<u32, String> {
    let layers = r.u32()?;
    for _ in 0..layers {
        let (rows, cols) = (r.u32()?, r.u32()?);
        let floats = (rows as usize)
            .checked_mul(cols as usize)
            .and_then(|w| w.checked_add(cols as usize))
            .ok_or_else(overflow)?;
        layer(rows, cols, r.values(floats, 4)?)?;
    }
    Ok(layers)
}

/// Appends the floats of `bytes` (little-endian bits, a multiple of 4
/// long) to `out`, growing it once by exactly their count.
pub fn extend_f32s(out: &mut Vec<f32>, bytes: &[u8]) {
    out.extend(bytes.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))));
}
