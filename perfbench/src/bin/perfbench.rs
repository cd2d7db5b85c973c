//! Untraced benchmark runs (`--trace 0`): the end-to-end metrics.

fn main() -> std::process::ExitCode {
    desync_perfbench::main(None)
}
