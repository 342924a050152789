//! Shared line-buffered stderr writer for single-line progress and
//! watchdog alerts.
//!
//! Each telemetry sample repaints one `\r`-terminated progress line
//! while watchdog alerts (and recovery notices) want whole lines of
//! their own. If both wrote to stderr directly, an alert landing
//! mid-repaint would splice into the progress text. This module owns
//! one process-wide lock: every emission is a single buffered
//! `write_all` + flush under it, and the writer remembers whether a
//! progress line is currently open so alerts clear it (padding over any
//! leftover columns) before taking a fresh line.

use std::io::Write as _;
use std::sync::Mutex;

/// Columns painted by the currently-open progress line (0 = none open).
static OPEN_COLS: Mutex<usize> = Mutex::new(0);

fn lock() -> std::sync::MutexGuard<'static, usize> {
    match OPEN_COLS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn emit(buf: &[u8]) {
    #[cfg(test)]
    if tests::captured(buf) {
        return;
    }
    let mut err = std::io::stderr().lock();
    let _ = err.write_all(buf);
    let _ = err.flush();
}

/// Repaints the single progress line (no trailing newline). Shorter
/// repaints pad over the previous line's leftover columns.
pub fn progress(line: &str) {
    let mut open = lock();
    let cols = line.chars().count();
    let mut buf = String::with_capacity(2 * line.len() + *open + 8);
    buf.push('\r');
    buf.push_str(line);
    if cols < *open {
        // Pad over the previous line's leftover columns, then rewrite
        // the text so the cursor rests at its end.
        for _ in cols..*open {
            buf.push(' ');
        }
        buf.push('\r');
        buf.push_str(line);
    }
    *open = cols;
    emit(buf.as_bytes());
}

/// Emits a whole line of its own (e.g. a watchdog alert), clearing any
/// open progress line first. The next [`progress`] call repaints below.
pub(crate) fn alert(line: &str) {
    let mut open = lock();
    let mut buf = String::with_capacity(line.len() + *open + 8);
    if *open > 0 {
        buf.push('\r');
        for _ in 0..*open {
            buf.push(' ');
        }
        buf.push('\r');
        *open = 0;
    }
    buf.push_str(line);
    buf.push('\n');
    emit(buf.as_bytes());
}

/// Terminates an open progress line with a newline (end-of-run flush).
/// A no-op when no progress line is open.
pub(crate) fn newline() {
    let mut open = lock();
    if *open > 0 {
        *open = 0;
        emit(b"\n");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// What this thread would have written to stderr, while
        /// [`capture`] is open on it.
        static CAPTURED: std::cell::RefCell<Option<Vec<u8>>> =
            const { std::cell::RefCell::new(None) };
    }

    /// Runs `f` with this thread's stderr writes collected, not written.
    pub(crate) fn capture(f: impl FnOnce()) -> String {
        CAPTURED.with(|c| *c.borrow_mut() = Some(Vec::new()));
        f();
        let bytes = CAPTURED.with(|c| c.borrow_mut().take()).unwrap_or_default();
        String::from_utf8(bytes).expect("status lines are UTF-8")
    }

    /// Takes `buf` if a capture is open on this thread.
    pub(super) fn captured(buf: &[u8]) -> bool {
        CAPTURED
            .with(|c| c.borrow_mut().as_mut().map(|b| b.extend_from_slice(buf)))
            .is_some()
    }

    // The writers target the real stderr, so these tests only exercise
    // the bookkeeping: no panics, the open-line state resets, and
    // concurrent emitters don't deadlock.
    #[test]
    fn progress_alert_newline_sequence_is_safe() {
        progress("epoch 1/4 [####      ] 40%");
        alert("watchdog: straggler on stage 2 at 1200000us (busy 9x median)");
        progress("epoch 1/4 [#####     ] 50%");
        progress("short");
        newline();
        newline(); // idempotent when nothing is open
        assert_eq!(*lock(), 0);
    }

    #[test]
    fn concurrent_emitters_serialize_without_deadlock() {
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    for n in 0..50 {
                        if n % 2 == 0 {
                            progress(&format!("t{i} step {n}"));
                        } else {
                            alert(&format!("t{i} alert {n}"));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        newline();
    }
}
