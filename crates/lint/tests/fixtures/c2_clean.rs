// C2 clean fixture: persistence code that routes every byte through
// the durable layer — tmp + fsync + rename — so no raw write exists
// for the rule to flag. `durable` stands in for riskpipe_tables'.
use std::io;
use std::path::Path;

mod durable {
    pub fn write_atomic(_path: &std::path::Path, _bytes: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
}

pub fn persist_manifest(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    durable::write_atomic(&dir.join("MANIFEST.txt"), bytes)
}
