//! A TCP [`Transport`] whose accepted streams record a span around
//! every `read` and `write` the server's request loop makes.

use crate::trace::Tracer;
use rsm_serve::server::Transport;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Wraps a bound TCP listener.
#[derive(Debug)]
pub struct TracedListener<'t> {
    /// The bound listener.
    pub inner: TcpListener,
    /// Where the stream spans go.
    pub tracer: &'t Tracer,
}

/// An accepted connection (or a clone of its handle).
#[derive(Debug)]
pub struct TracedStream<'t> {
    inner: TcpStream,
    tracer: &'t Tracer,
}

impl Read for TracedStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        self.tracer.span("server.read", || inner.read(buf))
    }
}

impl Write for TracedStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        self.tracer.span("server.write", || inner.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<'t> Transport for TracedListener<'t> {
    type Stream = TracedStream<'t>;

    fn accept_conn(&self) -> io::Result<TracedStream<'t>> {
        let (inner, _) = self.inner.accept()?;
        Ok(TracedStream {
            inner,
            tracer: self.tracer,
        })
    }

    fn clone_stream(stream: &TracedStream<'t>) -> io::Result<TracedStream<'t>> {
        Ok(TracedStream {
            inner: stream.inner.try_clone()?,
            tracer: stream.tracer,
        })
    }
}
