// Entropy clean fixture: every stream derives from an explicit
// caller-provided seed, with per-task seeds mixed from stable ids.
pub fn task_seed(scenario_seed: u64, task: u64) -> u64 {
    scenario_seed ^ task.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
