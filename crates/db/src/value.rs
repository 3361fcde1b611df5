//! Values, rows and schemas for the row store.

use bytes::{Buf, BufMut};
use riskpipe_types::{RiskError, RiskResult};

/// Column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 32-bit unsigned integer.
    U32,
    /// 64-bit unsigned integer.
    U64,
    /// 64-bit float.
    F64,
}

impl ColumnType {
    /// Fixed byte width of the type.
    pub const fn width(self) -> usize {
        match self {
            ColumnType::U32 => 4,
            ColumnType::U64 => 8,
            ColumnType::F64 => 8,
        }
    }
}

/// A single value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit unsigned integer.
    U32(u32),
    /// 64-bit unsigned integer.
    U64(u64),
    /// 64-bit float.
    F64(f64),
}

impl Value {
    /// The value's type.
    fn column_type(&self) -> ColumnType {
        match self {
            Value::U32(_) => ColumnType::U32,
            Value::U64(_) => ColumnType::U64,
            Value::F64(_) => ColumnType::F64,
        }
    }

    /// As u32 (panics on type mismatch — operator trees are typed by
    /// construction).
    pub fn as_u32(&self) -> u32 {
        match self {
            Value::U32(v) => *v,
            _ => panic!("expected U32, got {self:?}"),
        }
    }

    /// As f64.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            _ => panic!("expected F64, got {self:?}"),
        }
    }
}

/// A row of values.
pub type Row = Vec<Value>;

/// A table schema: named, typed, fixed-width columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build from `(name, type)` pairs.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        Self {
            columns: columns
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns.
    pub fn columns(&self) -> &[(String, ColumnType)] {
        &self.columns
    }

    /// Bytes per encoded row.
    fn row_width(&self) -> usize {
        self.columns.iter().map(|(_, t)| t.width()).sum()
    }

    /// Encode a row (must match the schema).
    pub fn encode_row(&self, row: &Row) -> RiskResult<Vec<u8>> {
        if row.len() != self.arity() {
            return Err(RiskError::invalid(format!(
                "row arity {} != schema arity {}",
                row.len(),
                self.arity()
            )));
        }
        let mut buf = Vec::with_capacity(self.row_width());
        for (v, (name, t)) in row.iter().zip(&self.columns) {
            if v.column_type() != *t {
                return Err(RiskError::invalid(format!(
                    "column {name}: expected {t:?}, got {:?}",
                    v.column_type()
                )));
            }
            match v {
                Value::U32(x) => buf.put_u32_le(*x),
                Value::U64(x) => buf.put_u64_le(*x),
                Value::F64(x) => buf.put_f64_le(*x),
            }
        }
        Ok(buf)
    }

    /// Decode a row.
    pub fn decode_row(&self, mut data: &[u8]) -> RiskResult<Row> {
        if data.len() != self.row_width() {
            return Err(RiskError::corrupt(format!(
                "row is {} bytes, schema wants {}",
                data.len(),
                self.row_width()
            )));
        }
        let mut row = Vec::with_capacity(self.arity());
        for (_, t) in &self.columns {
            row.push(match t {
                ColumnType::U32 => Value::U32(data.get_u32_le()),
                ColumnType::U64 => Value::U64(data.get_u64_le()),
                ColumnType::F64 => Value::F64(data.get_f64_le()),
            });
        }
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("trial", ColumnType::U32),
            ("event", ColumnType::U32),
            ("loss", ColumnType::F64),
        ])
    }

    #[test]
    fn row_round_trip() {
        let s = schema();
        let row = vec![Value::U32(7), Value::U32(99), Value::F64(123.5)];
        let bytes = s.encode_row(&row).unwrap();
        assert_eq!(bytes.len(), s.row_width());
        assert_eq!(s.decode_row(&bytes).unwrap(), row);
    }

    #[test]
    fn schema_lookups() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.row_width(), 16);
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = schema();
        let bad = vec![Value::F64(1.0), Value::U32(2), Value::F64(3.0)];
        assert!(s.encode_row(&bad).is_err());
        let short = vec![Value::U32(1)];
        assert!(s.encode_row(&short).is_err());
    }

    #[test]
    fn decode_validates_length() {
        let s = schema();
        assert!(s.decode_row(&[0u8; 5]).is_err());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::U32(5).as_u32(), 5);
        assert_eq!(Value::F64(2.5).as_f64(), 2.5);
    }

    #[test]
    #[should_panic]
    fn wrong_accessor_panics() {
        Value::F64(1.0).as_u32();
    }
}
