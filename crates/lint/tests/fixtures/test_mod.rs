// Test-module fixture, staged as serving library code: clippy's unsafe
// audit applies inside `#[cfg(test)]`; W1's lints do not (clippy.toml).
#[cfg(test)]
mod tests {
    unsafe fn danger() {}

    fn unaudited() {
        unsafe { danger() }
    }

    fn panics(x: Option<u32>) -> u32 {
        if x == Some(0) {
            panic!("zero");
        }
        x.unwrap() + x.expect("some")
    }
}
