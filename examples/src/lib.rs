//! Example programs live at the crate root; see the `[[example]]` entries in Cargo.toml.
