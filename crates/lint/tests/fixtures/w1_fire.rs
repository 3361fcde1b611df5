// W1 firing fixture: panic paths in what the clippy harness stages as
// serving-crate library code. The unwrap, the expect and the panic!
// are all denied; the same source in a non-serving crate or an
// integration test stays silent.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let lo = xs.first().expect("non-empty input");
    let idx = (q * (xs.len() - 1) as f64).round() as usize;
    let v = xs.get(idx).unwrap();
    if !v.is_finite() {
        panic!("non-finite quantile input");
    }
    v.max(*lo)
}
