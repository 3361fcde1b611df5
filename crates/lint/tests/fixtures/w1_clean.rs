// W1 clean fixture: the same lookup written as a total function — the
// error is propagated as a value instead of panicking the serving
// thread. `RiskError` stands in for riskpipe_types'.
pub enum RiskError {
    InvalidInput(String),
}

pub type RiskResult<T> = Result<T, RiskError>;

pub fn quantile(xs: &[f64], q: f64) -> RiskResult<f64> {
    let idx = (q * (xs.len().saturating_sub(1)) as f64).round() as usize;
    match xs.get(idx) {
        Some(v) if v.is_finite() => Ok(*v),
        Some(_) => Err(RiskError::InvalidInput("non-finite quantile input".into())),
        None => Err(RiskError::InvalidInput("empty quantile input".into())),
    }
}
