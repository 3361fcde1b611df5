// C2 firing fixture: raw filesystem writes in persistence code. Both
// the direct fs::write and the truncating open must fire — a crash
// mid-write leaves a torn artifact under its final name.
use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::Path;

pub fn persist_manifest(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    fs::write(dir.join("MANIFEST.txt"), bytes)
}

pub fn open_snapshot(path: &Path) -> io::Result<File> {
    OpenOptions::new().write(true).truncate(true).open(path)
}
