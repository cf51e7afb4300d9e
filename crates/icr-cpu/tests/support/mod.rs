pub mod golden;
