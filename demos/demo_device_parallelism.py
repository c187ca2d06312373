#!/usr/bin/env python3
"""Raw card parallelism: bank-level overlap, shared queues, shared channels.

Writes to banks on different interfaces overlap almost perfectly; writes to
one bank serialize; reads to two banks that share one read queue (and, on
this card, one interface bus) serialize harder than reads to banks that do
not. Every request below is submitted at
virtual time 0, so each completion time shows how long the card took.
"""

from bankftl import PageAddress, make_device

dev = make_device("desk8")
g = dev.geometry
page = b"\xab" * g.page_size
print(f"desk8 card: {g.num_interfaces} interfaces x {g.banks_per_interface} banks, "
      f"{g.blocks_per_bank} blocks of {g.pages_per_block} x {g.page_size}B pages")
print(f"{len(dev.bus_free_at)} interface buses, {len(dev.read_queues)} read queues "
      f"(one per two banks)\n")

# one write alone
d = dev.write_page(PageAddress(0, 0, 0), page, submit_us=0)
print(f"single page write: {d.service_latency} us")

# two writes on different interfaces: near-perfect overlap
dev = make_device("desk8")
done = [dev.write_page(PageAddress(bank, 0, 0), page, submit_us=0)
        for bank in (0, 2)]   # banks 0 and 2 sit on different interfaces
print(f"two banks, two interfaces: finished at "
      f"{max(c.complete_us for c in done)} us")

# two writes to the same bank: executions serialize
dev = make_device("desk8")
done = [dev.write_page(PageAddress(0, 0, p), page, submit_us=0) for p in (0, 1)]
print(f"same bank:                 finished at {max(c.complete_us for c in done)} us")

# reads: banks 0,1 share a read queue; banks 0,2 do not
for pair in ((0, 1), (0, 2)):
    dev = make_device("desk8")
    for bank in pair:
        dev.write_page(PageAddress(bank, 0, 0), page, submit_us=0)
    dev.reset_clocks(0)
    done = [dev.read_page(PageAddress(bank, 0, 0), length=g.read_unit,
                          submit_us=0)[2]
            for bank in pair]
    share = "share a queue" if pair == (0, 1) else "own queues"
    print(f"reads on banks {pair} ({share}): finished at "
          f"{max(c.complete_us for c in done)} us")
